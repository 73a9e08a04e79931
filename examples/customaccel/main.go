// Custom accelerator, local and over the wire: autoAx is not limited to
// the paper's three case studies, and since the accelerator wire format
// it is not limited to in-process use either.  This example defines a new
// image operator — a neighbourhood-difference edge detector
// out = |p11 − (p01+p10+p12+p21)/4| — with the public graph API, then
//
//  1. serializes it to the canonical JSON wire format (accelerator.json),
//
//  2. runs the methodology on it in-process,
//
//  3. starts an in-process job service, submits the *serialized* graph to
//     POST /v1/pipelines through the typed client SDK, and
//
//  4. checks the Pareto front from the service is identical to the
//     in-process one, and that a structurally identical resubmission
//     (every node renamed) is served from the content-addressed cache.
//
//     go run ./examples/customaccel
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"autoax"
)

// Budgets shared by the local run and the service request — they must
// agree for the fronts to be comparable.
const (
	libCount                  = 30 // circuits per operation instance
	trainN, testN             = 60, 40
	evalsN, stagnationN       = 4000, 50
	imgN, imgW, imgH          = 2, 48, 32
	seed                int64 = 1
)

// buildApp wires the custom dataflow graph and its window binding.
func buildApp() *autoax.ImageApp {
	g := autoax.NewGraph("neighbordiff")
	p01 := g.Input("p01", 8) // north
	p10 := g.Input("p10", 8) // west
	p12 := g.Input("p12", 8) // east
	p21 := g.Input("p21", 8) // south
	p11 := g.Input("p11", 8) // centre

	s1 := g.Add("add1", 8, p01, p21) // 9 bits
	s2 := g.Add("add2", 8, p10, p12) // 9 bits
	s3 := g.Add("add3", 9, s1, s2)   // 10 bits
	avg := g.ShiftR("avg", s3, 2)    // 8 bits: (Σ neighbours)/4
	d := g.Sub("sub1", 8, p11, avg)  // 9 bits, two's complement
	g.Output(g.Clamp("sat", g.Abs("abs", d), 8))

	return &autoax.ImageApp{
		Name:  "neighbordiff",
		Graph: g,
		Taps: []autoax.WindowTap{
			{DX: 0, DY: -1}, {DX: -1, DY: 0}, {DX: 1, DY: 0}, {DX: 0, DY: 1}, {DX: 0, DY: 0},
		},
		Sims: [][]uint64{{}},
	}
}

// librarySpecs is the operation mix both the local build and the service
// request ask for — note sub8, an instance none of the paper's apps use.
func librarySpecs() []autoax.LibrarySpec {
	return []autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: libCount},
		{Op: autoax.OpAdd(9), Count: libCount},
		{Op: autoax.OpSub(8), Count: libCount},
	}
}

func main() {
	app := buildApp()
	if err := app.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("custom accelerator operation mix:")
	for op, n := range app.Graph.OpCounts() {
		fmt.Printf("  %s × %d\n", op, n)
	}

	// 1. Serialize to the canonical wire format: this file is everything a
	// remote service needs to evaluate the accelerator (feed it to
	// `autoax -graph FILE pipeline` or `autoax -graph FILE submit`).
	wire, err := app.MarshalWire()
	if err != nil {
		log.Fatal(err)
	}
	wirePath := filepath.Join(os.TempDir(), "accelerator.json")
	if err := os.WriteFile(wirePath, wire, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwire format: %d bytes → %s (canonical hash %.16s…)\n",
		len(wire), wirePath, app.CanonicalHash())

	// 2. In-process run of the methodology.
	lib, err := autoax.BuildLibrary(librarySpecs(), seed)
	if err != nil {
		log.Fatal(err)
	}
	images := autoax.BenchmarkImages(imgN, imgW, imgH, seed+1000)
	pipe, err := autoax.NewPipeline(app, lib, images, autoax.Config{
		TrainConfigs: trainN, TestConfigs: testN,
		SearchEvals: evalsN, Stagnation: stagnationN, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := pipe.RunContext(context.Background()); err != nil {
		log.Fatal(err)
	}
	localCfgs, localRes := pipe.FrontResults()
	fmt.Printf("\nin-process run: reduced space %.3g configurations, front %d, fidelity QoR %.0f%% / HW %.0f%%\n",
		pipe.Space.NumConfigs(), len(localRes), 100*pipe.QoRFidelity, 100*pipe.HWFidelity)

	// 3. The same accelerator over the wire: an in-process job service and
	// the typed client SDK.
	srv, err := autoax.NewServer(autoax.ServerOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	client := autoax.NewClient("http://" + ln.Addr().String())

	var wireApp autoax.WireApp
	if err := json.Unmarshal(wire, &wireApp); err != nil {
		log.Fatal(err)
	}
	req := autoax.ServerPipelineRequest{
		Accelerator: &wireApp,
		Library: autoax.ServerLibraryRequest{
			Specs: []autoax.ServerLibrarySpec{
				{Op: "add8", Count: libCount},
				{Op: "add9", Count: libCount},
				{Op: "sub8", Count: libCount},
			},
			Seed: seed,
		},
		Images:       autoax.ImageSpec{Count: imgN, Width: imgW, Height: imgH, Seed: seed + 1000},
		TrainConfigs: trainN, TestConfigs: testN,
		SearchEvals: evalsN, Stagnation: stagnationN, Seed: seed,
	}
	job, err := client.SubmitPipeline(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted %s to the job service, waiting…\n", job.ID)
	done, err := client.Jobs.Wait(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	remote, err := autoax.PipelineResultOf(done)
	if err != nil {
		log.Fatal(err)
	}

	// 4a. The service front must be identical to the in-process one.
	if len(remote.Front) != len(localRes) {
		log.Fatalf("front size mismatch: service %d vs local %d", len(remote.Front), len(localRes))
	}
	for i, f := range remote.Front {
		if f.SSIM != localRes[i].SSIM || f.Area != localRes[i].Area || f.Energy != localRes[i].Energy {
			log.Fatalf("front entry %d differs: service %+v vs local %+v / %v",
				i, f, localRes[i], localCfgs[i])
		}
	}
	fmt.Printf("service front identical to the in-process run (%d entries)\n", len(remote.Front))
	fmt.Println("  SSIM     area(µm²)  energy(fJ/px)")
	for _, f := range remote.Front {
		fmt.Printf("  %.5f  %9.1f  %12.1f\n", f.SSIM, f.Area, f.Energy)
	}

	// 4b. Content addressing is structural: renaming every node must not
	// change the cache identity, so the resubmission is a cache hit.
	renamed := wireApp
	renamed.Name = "totally-different-name"
	renamed.Graph.Name = "same-structure"
	renamed.Graph.Nodes = append([]autoax.WireNode(nil), wireApp.Graph.Nodes...)
	for i := range renamed.Graph.Nodes {
		renamed.Graph.Nodes[i].Name = fmt.Sprintf("node_%d", i)
	}
	req2 := req
	req2.Accelerator = &renamed
	job2, err := client.SubmitPipeline(ctx, req2)
	if err != nil {
		log.Fatal(err)
	}
	done2, err := client.Jobs.Wait(ctx, job2.ID)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := autoax.PipelineResultOf(done2); err != nil {
		log.Fatal(err)
	}
	if !done2.Cached {
		log.Fatal("renamed-but-identical accelerator was recomputed instead of cache-served")
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrenamed resubmission served from cache (hits %d, coalesced %d)\n",
		stats.Cache.Hits, stats.Cache.Coalesced)
}
