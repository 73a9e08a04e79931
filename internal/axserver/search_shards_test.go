package axserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/fleet"
)

// buildLibrary runs a library build to completion on a server and returns
// its canonical key — the fleet's LibraryHash.
func buildLibrary(t *testing.T, base string, req LibraryRequest) string {
	t.Helper()
	var job JobInfo
	if code := postJSON(t, base+"/v1/libraries", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit library: status %d", code)
	}
	info := waitJob(t, base, job.ID)
	if info.State != JobSucceeded {
		t.Fatalf("library build: %s (%s)", info.State, info.Error)
	}
	var res LibraryResult
	if err := json.Unmarshal(info.Result, &res); err != nil {
		t.Fatalf("decode library result: %v", err)
	}
	return res.Key
}

// tinyShardReq is the shard-request analogue of tinyPipeline: the same
// model context, with the shard filled in by the caller.
func tinyShardReq(libHash string) SearchShardRequest {
	return SearchShardRequest{
		Version:      fleet.ProtocolVersion,
		App:          "sobel",
		Images:       ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		TrainConfigs: 24,
		TestConfigs:  12,
		Seed:         4,
		Shard: fleet.ShardSpec{
			LibraryHash: libHash,
			Engine:      "hillclimb",
			Seed:        12345,
			Evaluations: 500,
		},
	}
}

// postShard posts a shard request and decodes either the response or the
// typed error envelope.
func postShard(t *testing.T, base string, req SearchShardRequest) (int, SearchShardResponse, errorBody) {
	t.Helper()
	var raw json.RawMessage
	code := postJSON(t, base+"/v1/search/shards", req, &raw)
	var resp SearchShardResponse
	var eb errorBody
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decode shard response: %v", err)
		}
	} else if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decode shard error: %v", err)
	}
	return code, resp, eb
}

// TestSearchShardValidation pins the typed 4xx contract of the shard
// endpoint: unknown engine, zero/negative budget, and unknown library
// hash each map to a distinct machine-readable code (alongside the
// engine-validation cases of search_engine_test.go).
func TestSearchShardValidation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	libHash := buildLibrary(t, ts.URL, tinyLibrary(1))

	cases := []struct {
		name   string
		mutate func(*SearchShardRequest)
		status int
		code   string
	}{
		{"unknown engine", func(r *SearchShardRequest) { r.Shard.Engine = "simulated-annealing" },
			http.StatusBadRequest, codeUnknownEngine},
		{"zero budget", func(r *SearchShardRequest) { r.Shard.Evaluations = 0 },
			http.StatusBadRequest, codeInvalidBudget},
		{"negative budget", func(r *SearchShardRequest) { r.Shard.Evaluations = -100 },
			http.StatusBadRequest, codeInvalidBudget},
		{"negative population", func(r *SearchShardRequest) { r.Shard.Population = -1 },
			http.StatusBadRequest, codeInvalidBudget},
		{"unknown library", func(r *SearchShardRequest) { r.Shard.LibraryHash = "deadbeef" },
			http.StatusNotFound, codeUnknownLibrary},
		{"missing library", func(r *SearchShardRequest) { r.Shard.LibraryHash = "" },
			http.StatusBadRequest, codeUnknownLibrary},
		{"bad version", func(r *SearchShardRequest) { r.Version = 99 },
			http.StatusBadRequest, codeBadVersion},
		{"zero version", func(r *SearchShardRequest) { r.Version = 0 },
			http.StatusBadRequest, codeBadVersion},
		{"unknown app", func(r *SearchShardRequest) { r.App = "warp-drive" },
			http.StatusBadRequest, codeBadRequest},
		{"bad images", func(r *SearchShardRequest) { r.Images.Count = -1 },
			http.StatusBadRequest, codeBadRequest},
	}
	for _, tc := range cases {
		req := tinyShardReq(libHash)
		tc.mutate(&req)
		code, _, eb := postShard(t, ts.URL, req)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.status)
		}
		if eb.Code != tc.code {
			t.Errorf("%s: error code %q, want %q (error: %s)", tc.name, eb.Code, tc.code, eb.Error)
		}
	}
}

// TestSearchShardCancelledContext: a shard whose context has ended gets
// a 503 with no error code — a transient failure to retry elsewhere, not
// the bad_request a coordinator reads as a fault of the request itself —
// whether it ends waiting for a shard slot or while building or searching.
func TestSearchShardCancelledContext(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	req := tinyShardReq(buildLibrary(t, ts.URL, tinyLibrary(1)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(label string) {
		t.Helper()
		_, serr := s.runSearchShard(ctx, req)
		if serr == nil {
			t.Fatalf("%s: cancelled shard succeeded", label)
		}
		if serr.status != http.StatusServiceUnavailable || serr.code != "" || !errors.Is(serr.err, context.Canceled) {
			t.Errorf("%s: status %d, code %q, err %v; want 503, no code, context.Canceled",
				label, serr.status, serr.code, serr.err)
		}
	}
	s.shardSem <- struct{}{} // the only slot is taken: the shard waits
	check("waiting for a slot")
	<-s.shardSem
	for i := 0; i < 4; i++ {
		check("with a free slot")
	}
}

// TestSearchShardCrossWorkerIdentity is the wire half of the fleet
// determinism contract: two independent servers that each built the same
// library return bit-identical points for the same shard spec, and the
// response echoes the shard identity.
func TestSearchShardCrossWorkerIdentity(t *testing.T) {
	_, tsA := testServer(t, Options{Workers: 2})
	_, tsB := testServer(t, Options{Workers: 2})
	hashA := buildLibrary(t, tsA.URL, tinyLibrary(1))
	hashB := buildLibrary(t, tsB.URL, tinyLibrary(1))
	if hashA != hashB {
		t.Fatalf("servers disagree on the canonical library hash: %s vs %s", hashA, hashB)
	}

	req := tinyShardReq(hashA)
	codeA, respA, _ := postShard(t, tsA.URL, req)
	codeB, respB, _ := postShard(t, tsB.URL, req)
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("shard runs: status %d / %d", codeA, codeB)
	}
	if respA.Version != fleet.ProtocolVersion || respA.Engine != "hillclimb" ||
		respA.Seed != req.Shard.Seed || respA.Evaluations != req.Shard.Evaluations ||
		respA.LibraryHash != hashA {
		t.Errorf("response does not echo the shard identity: %+v", respA)
	}
	if len(respA.Points) == 0 {
		t.Fatal("shard returned no archive survivors")
	}
	mustSamePoints(t, respA.Points, respB.Points, "cross-server")

	// Re-running the identical shard on the same server (memoized models)
	// must also be bit-identical.
	_, respA2, _ := postShard(t, tsA.URL, req)
	mustSamePoints(t, respA.Points, respA2.Points, "rerun")

	// A different shard seed is a different stream.
	reseeded := req
	reseeded.Shard.Seed = 999
	code, respC, _ := postShard(t, tsA.URL, reseeded)
	if code != http.StatusOK {
		t.Fatalf("reseeded shard: status %d", code)
	}
	if samePoints(respA.Points, respC.Points) {
		t.Error("different shard seeds returned identical archives")
	}
}

func samePoints(a, b []fleet.ShardPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Point) != len(b[i].Point) || len(a[i].Config) != len(b[i].Config) {
			return false
		}
		for d := range a[i].Point {
			if math.Float64bits(a[i].Point[d]) != math.Float64bits(b[i].Point[d]) {
				return false
			}
		}
		for d := range a[i].Config {
			if a[i].Config[d] != b[i].Config[d] {
				return false
			}
		}
	}
	return true
}

func mustSamePoints(t *testing.T, a, b []fleet.ShardPoint, label string) {
	t.Helper()
	if !samePoints(a, b) {
		t.Fatalf("%s: shard archives are not bit-identical (%d vs %d points)", label, len(a), len(b))
	}
}

// modelServer is a Server with only the shard-model memo set up, enough
// to drive sharedModels directly.
func modelServer() *Server {
	s := &Server{}
	s.models.Budget = modelCacheEntries
	return s
}

// TestSharedModelsBoundedLRU pins the model memo's bound and its
// promote-on-hit: after modelCacheEntries+1 distinct builds the
// least-recently-used context rebuilds, and one hit in between keeps its
// entry.
func TestSharedModelsBoundedLRU(t *testing.T) {
	s := modelServer()
	builds := make(map[string]int)
	get := func(key string) {
		t.Helper()
		_, err := s.sharedModels(context.Background(), key, func(context.Context) (*dse.Models, error) {
			builds[key]++
			return &dse.Models{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("ctx-%d", i) }
	for i := 0; i < modelCacheEntries; i++ {
		get(key(i))
	}
	get(key(0))                 // a hit: key 0 is now the most recent
	get(key(modelCacheEntries)) // one build past the bound evicts key 1
	for i := 0; i <= modelCacheEntries; i++ {
		if builds[key(i)] != 1 {
			t.Fatalf("before the probe: %s built %d times, want 1", key(i), builds[key(i)])
		}
	}
	get(key(0))
	get(key(1))
	if builds[key(0)] != 1 || builds[key(1)] != 2 {
		t.Fatalf("builds %v: want the hit key memoized (1) and the least-recently-used key rebuilt (2)", builds)
	}
}

// awaitModelWaiter blocks until one caller has parked on key's in-flight
// model build — synchronizing on the entry's waiter count, not on timing.
func awaitModelWaiter(t *testing.T, s *Server, key string) {
	t.Helper()
	if _, ok := s.modelFlight.Waiters(key); !ok {
		t.Fatal("leader's model entry not registered")
	}
	deadline := time.Now().Add(10 * time.Second)
	for n, _ := s.modelFlight.Waiters(key); n < 1; n, _ = s.modelFlight.Waiters(key) {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the model build")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedModelsPanicDoesNotWedge pins the panic path of the model
// singleflight: a panicking build becomes the leader's error, a waiter
// parked on the build returns (failures are not shared, so it builds the
// models itself), and the panic is not left cached, so later requests
// get a real build instead of waiting forever on an entry that never
// finishes.
func TestSharedModelsPanicDoesNotWedge(t *testing.T) {
	s := modelServer()
	want := &dse.Models{}
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.sharedModels(context.Background(), "k", func(context.Context) (*dse.Models, error) {
			close(started)
			<-release
			panic("boom")
		})
		leaderErr <- err
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.sharedModels(context.Background(), "k", func(context.Context) (*dse.Models, error) {
			return want, nil
		})
		waiterDone <- err
	}()
	awaitModelWaiter(t, s, "k")
	close(release)
	if err := <-leaderErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("leader: got %v, want the panic as an error", err)
	}
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged on the panicked build")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := s.sharedModels(ctx, "k", func(context.Context) (*dse.Models, error) { return want, nil })
	if err != nil || m != want {
		t.Fatalf("after the panic: got (%p, %v), want a fresh build", m, err)
	}
}

// TestSharedModelsWaiterOutlivesCancelledLeader pins the cancellation path
// of the model singleflight: when the leader's own context ends, a waiter
// whose context is still live builds the models itself instead of
// returning the leader's context error (which reached a still-connected
// coordinator as a 500).
func TestSharedModelsWaiterOutlivesCancelledLeader(t *testing.T) {
	s := modelServer()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.sharedModels(leaderCtx, "k", func(ctx context.Context) (*dse.Models, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started
	want := &dse.Models{}
	var builds atomic.Int32
	type result struct {
		m   *dse.Models
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		m, err := s.sharedModels(context.Background(), "k", func(context.Context) (*dse.Models, error) {
			builds.Add(1)
			return want, nil
		})
		waiter <- result{m, err}
	}()
	awaitModelWaiter(t, s, "k")
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: got %v, want context.Canceled", err)
	}
	select {
	case r := <-waiter:
		if r.err != nil || r.m != want {
			t.Fatalf("waiter: got (%p, %v), want its own build", r.m, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not return")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("waiter ran %d builds, want 1", n)
	}
	// The rebuilt models are memoized for the next shard.
	m, err := s.sharedModels(context.Background(), "k", func(context.Context) (*dse.Models, error) {
		t.Fatal("memoized models rebuilt")
		return nil, nil
	})
	if err != nil || m != want {
		t.Fatalf("memo: got (%p, %v)", m, err)
	}
}

// TestModelKeyGolden pins the content key of one fixed shard model
// context.  Fleet workers memoize trained models by this key, so a
// change to the shard request or to its canonicalization must not rotate
// it.  Fields outside the model context (protocol version, shard spec)
// must not move it, and neither may an inline spelling of the
// accelerator or an explicit spelling of the defaults.
func TestModelKeyGolden(t *testing.T) {
	const want = "4e1ad097ada480b2e155e5790963fe86d43ace68b694fa176d8dcc31ff27c303"
	req := tinyShardReq(goldenLibraryHash)
	if got := shardModelKey(t, req); got != want {
		t.Errorf("model key = %s, want %s", got, want)
	}
	other := req
	other.Version = 0
	other.Shard = fleet.ShardSpec{LibraryHash: goldenLibraryHash, Engine: "random", Seed: 9, Evaluations: 7}
	other.App, other.Accelerator = "", inlineSobel(t, true)
	other.Engine = core.DefaultConfig().Engine.Name
	if got := shardModelKey(t, other); got != want {
		t.Errorf("model key of an equivalent spelling = %s, want %s", got, want)
	}
	other.Seed++
	if shardModelKey(t, other) == want {
		t.Error("a different model seed kept the model key")
	}
}

// goldenLibraryHash is the library hash of the pinned model context.
const goldenLibraryHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// shardModelKey returns the key the shard endpoint memoizes req's
// trained models under.
func shardModelKey(t *testing.T, req SearchShardRequest) string {
	t.Helper()
	_, k, err := prepare(req)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return k
}
