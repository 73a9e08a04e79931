package autoax_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"autoax"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow end to
// end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 30},
		{Op: autoax.OpAdd(9), Count: 30},
		{Op: autoax.OpSub(10), Count: 25},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Size() == 0 {
		t.Fatal("empty library")
	}
	images := autoax.BenchmarkImages(2, 32, 24, 7)
	pipe, err := autoax.NewPipeline(autoax.Sobel(), lib, images, autoax.Config{
		TrainConfigs: 50, TestConfigs: 30, SearchEvals: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfgs, res := pipe.FrontResults()
	if len(cfgs) == 0 || len(cfgs) != len(res) {
		t.Fatalf("front: %d cfgs, %d results", len(cfgs), len(res))
	}
	for _, r := range res {
		if r.SSIM < -1 || r.SSIM > 1 || r.Area < 0 {
			t.Errorf("implausible result %+v", r)
		}
	}
}

// TestPublicAPILibraryRoundTrip saves and reloads a library through the
// facade.
func TestPublicAPILibraryRoundTrip(t *testing.T) {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{{Op: autoax.OpMul(4), Count: 10}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := lib.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := autoax.LoadLibrary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != lib.Size() {
		t.Fatalf("round trip size %d != %d", got.Size(), lib.Size())
	}
}

// TestPublicAPICustomGraph builds a custom accelerator via the facade and
// verifies precise evaluation of an exact configuration scores SSIM 1.
func TestPublicAPICustomGraph(t *testing.T) {
	g := autoax.NewGraph("double")
	a := g.Input("a", 8)
	sum := g.Add("add", 8, a, a)
	g.Output(g.Clamp("sat", sum, 8))
	app := &autoax.ImageApp{
		Name:  "double",
		Graph: g,
		Taps:  []autoax.WindowTap{{DX: 0, DY: 0}},
		Sims:  [][]uint64{{}},
	}
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{{Op: autoax.OpAdd(8), Count: 15}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	images := autoax.BenchmarkImages(1, 16, 16, 3)
	ev, err := autoax.NewEvaluator(app, images)
	if err != nil {
		t.Fatal(err)
	}
	// Find an exact circuit in the library.
	var exact *autoax.Circuit
	for _, c := range lib.For(autoax.OpAdd(8)) {
		if c.IsExact() {
			exact = c
			break
		}
	}
	if exact == nil {
		t.Fatal("no exact adder in library")
	}
	res, err := ev.Evaluate(autoax.Configuration{exact})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SSIM-1) > 1e-12 {
		t.Errorf("exact custom accelerator SSIM = %f", res.SSIM)
	}
}

// TestPublicAPIEngines sanity-checks the engine registry and the fidelity
// helper exposure.
func TestPublicAPIEngines(t *testing.T) {
	if len(autoax.Engines()) != 13 {
		t.Errorf("got %d engines, want 13", len(autoax.Engines()))
	}
	if _, err := autoax.EngineByName("Random Forest"); err != nil {
		t.Error(err)
	}
	if f := autoax.Fidelity([]float64{1, 2, 3}, []float64{10, 20, 30}); f != 1 {
		t.Errorf("fidelity = %f", f)
	}
}

// TestPublicAPIServer drives the asynchronous job service through the
// facade: a library build submitted over HTTP, polled to completion, and
// content-addressed consistently with LibraryKey.
func TestPublicAPIServer(t *testing.T) {
	srv, err := autoax.NewServer(autoax.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := autoax.ServerLibraryRequest{
		Specs: []autoax.ServerLibrarySpec{{Op: "mul4", Count: 8}},
		Seed:  3,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/libraries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var job autoax.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			t.Fatalf("poll: status %d", r.StatusCode)
		}
		err = json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.State != "succeeded" {
		t.Fatalf("job ended as %s: %s", job.State, job.Error)
	}
	var res struct {
		Key  string `json:"key"`
		Size int    `json:"size"`
	}
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	want := autoax.LibraryKey([]autoax.LibrarySpec{{Op: autoax.OpMul(4), Count: 8}}, 3)
	if res.Key != want {
		t.Errorf("server key %s, facade LibraryKey %s", res.Key, want)
	}
	if res.Size == 0 {
		t.Error("empty library built")
	}

	// Seed 0 is defaulted to 1 on the server; LibraryKey must agree.
	specs := []autoax.LibrarySpec{{Op: autoax.OpMul(4), Count: 8}}
	if autoax.LibraryKey(specs, 0) != autoax.LibraryKey(specs, 1) {
		t.Error("LibraryKey(seed 0) does not match the server's seed defaulting")
	}
}

// TestPublicAPIClientPipelineParity is the acceptance path of the
// first-class-accelerator API: a custom accelerator defined with
// autoax.NewGraph, serialized to JSON, submitted through the client SDK to
// /v1/pipelines, must return a Pareto front identical to the same graph
// run in-process.
func TestPublicAPIClientPipelineParity(t *testing.T) {
	const (
		libCount      = 12
		trainN, testN = 24, 12
		evalsN        = 1500
		stagnation    = 50
		seed          = int64(1)
	)
	g := autoax.NewGraph("halfsum")
	a := g.Input("a", 8)
	b := g.Input("b", 8)
	sum := g.Add("add", 8, a, b)                       // 9 bits
	diff := g.Sub("sub", 9, sum, g.ShiftL("a2", a, 1)) // 10 bits
	g.Output(g.Clamp("sat", g.Abs("abs", diff), 8))
	app := &autoax.ImageApp{
		Name:  "halfsum",
		Graph: g,
		Taps:  []autoax.WindowTap{{DX: 0, DY: 0}, {DX: 1, DY: 0}},
		Sims:  [][]uint64{{}},
	}

	// Serialize to JSON and back — the submitted accelerator is the
	// round-tripped artifact, exactly what a remote client would send.
	wire, err := app.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	var wireApp autoax.WireApp
	if err := json.Unmarshal(wire, &wireApp); err != nil {
		t.Fatal(err)
	}

	// In-process run.
	specs := []autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: libCount},
		{Op: autoax.OpSub(9), Count: libCount},
	}
	lib, err := autoax.BuildLibrary(specs, seed)
	if err != nil {
		t.Fatal(err)
	}
	images := autoax.BenchmarkImages(2, 32, 24, seed+1000)
	pipe, err := autoax.NewPipeline(app, lib, images, autoax.Config{
		TrainConfigs: trainN, TestConfigs: testN,
		SearchEvals: evalsN, Stagnation: stagnation, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, localRes := pipe.FrontResults()

	// The same run through the service, driven by the client SDK.
	srv, err := autoax.NewServer(autoax.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := autoax.NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := client.SubmitPipeline(ctx, autoax.ServerPipelineRequest{
		Accelerator: &wireApp,
		Library: autoax.ServerLibraryRequest{
			Specs: []autoax.ServerLibrarySpec{
				{Op: "add8", Count: libCount},
				{Op: "sub9", Count: libCount},
			},
			Seed: seed,
		},
		Images:       autoax.ImageSpec{Count: 2, Width: 32, Height: 24, Seed: seed + 1000},
		TrainConfigs: trainN, TestConfigs: testN,
		SearchEvals: evalsN, Stagnation: stagnation, Seed: seed,
	})
	if err != nil {
		t.Fatalf("SubmitPipeline: %v", err)
	}
	done, err := client.Jobs.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	remote, err := autoax.PipelineResultOf(done)
	if err != nil {
		t.Fatalf("decode: %v (job error %q)", err, done.Error)
	}

	if len(remote.Front) != len(localRes) {
		t.Fatalf("front size: service %d vs in-process %d", len(remote.Front), len(localRes))
	}
	for i, f := range remote.Front {
		if f.SSIM != localRes[i].SSIM || f.Area != localRes[i].Area || f.Energy != localRes[i].Energy {
			t.Errorf("front entry %d differs: service %+v vs in-process %+v", i, f, localRes[i])
		}
	}
}

// TestPublicAPIFleet exercises the distributed-search surface through the
// facade: the partition/merge/seed-derivation helpers and the protocol
// version, plus the adapter types wiring a Client into a coordinator.
func TestPublicAPIFleet(t *testing.T) {
	specs, err := autoax.FleetPartition(autoax.FleetShardSpec{
		LibraryHash: "lib-hash",
		Engine:      "hillclimb",
		Seed:        7,
		Evaluations: 1000,
	}, 4)
	if err != nil {
		t.Fatalf("FleetPartition: %v", err)
	}
	if len(specs) != 4 {
		t.Fatalf("got %d shards, want 4", len(specs))
	}
	total := 0
	for i, sp := range specs {
		total += sp.Evaluations
		want := autoax.DeriveSearchSeed("hillclimb", "fleet/shard/"+string(rune('0'+i)), 7)
		if sp.Seed != want {
			t.Errorf("shard %d seed %d, want the derived stream seed %d", i, sp.Seed, want)
		}
	}
	if total != 1000 {
		t.Fatalf("partition sums to %d evaluations, want 1000", total)
	}
	if autoax.FleetProtocolVersion < 1 {
		t.Fatalf("implausible fleet protocol version %d", autoax.FleetProtocolVersion)
	}

	// The remote adapter satisfies the worker seam the coordinator takes.
	var _ autoax.FleetWorker = &autoax.FleetShardWorker{Client: autoax.NewClient("http://localhost:0")}
	var _ autoax.FleetWorker = &autoax.FleetLocalWorker{}

	// Merging shard results in slice order is deterministic and pure.
	merged := autoax.FleetMerge([]*autoax.FleetShardResult{
		{Points: []autoax.FleetShardPoint{
			{Point: []float64{-0.9, 100}, Config: []int{1, 2}},
			{Point: []float64{-0.5, 50}, Config: []int{0, 0}},
		}},
		nil,
		{Points: []autoax.FleetShardPoint{
			{Point: []float64{-0.9, 100}, Config: []int{3, 4}}, // duplicate point: first insert wins
		}},
	})
	if merged.Len() != 2 {
		t.Fatalf("merged archive has %d points, want 2", merged.Len())
	}
	for _, cfg := range merged.Payloads() {
		if len(cfg) == 2 && cfg[0] == 3 && cfg[1] == 4 {
			t.Fatal("equal-point tie must keep the first-inserted configuration")
		}
	}
}
