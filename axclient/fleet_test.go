package axclient_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"autoax/axclient"
	"autoax/internal/axserver"
	"autoax/internal/fleet"
)

// shardContext is the shared model context every shard of the e2e fleet
// carries: the same tiny sobel setup the axserver tests use.
func shardContext() axserver.SearchShardRequest {
	return axserver.SearchShardRequest{
		App:          "sobel",
		Images:       axserver.ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		TrainConfigs: 24,
		TestConfigs:  12,
		Seed:         4,
	}
}

// buildLibraryOn warms one worker's content-addressed cache and returns
// the canonical library hash.
func buildLibraryOn(t *testing.T, ctx context.Context, c *axclient.Client) string {
	t.Helper()
	job, err := c.SubmitLibrary(ctx, tinyLibrary())
	if err != nil {
		t.Fatalf("SubmitLibrary: %v", err)
	}
	done, err := c.Jobs.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	res, err := axclient.LibraryResultOf(done)
	if err != nil {
		t.Fatalf("decode library result: %v", err)
	}
	return res.Key
}

func pointsEqual(a, b []fleet.ShardPoint) bool {
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

// TestFleetOverHTTP is the wire-level end of the fleet determinism
// contract: a coordinator driving two real axservers through ShardWorker
// — with a fault injected into the first worker's first attempt — must
// produce the archive a sequential shard-by-shard merge produces.
func TestFleetOverHTTP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	cA, _ := startService(t, axserver.Options{Workers: 2})
	cB, _ := startService(t, axserver.Options{Workers: 2})

	// Both workers advertise the shard protocol.
	for _, c := range []*axclient.Client{cA, cB} {
		v, err := c.ShardCapability(ctx)
		if err != nil || v != fleet.ProtocolVersion {
			t.Fatalf("ShardCapability(%s) = %d, %v; want %d", c.BaseURL(), v, err, fleet.ProtocolVersion)
		}
	}

	// Warm both content-addressed caches; the hashes must agree.
	hashA := buildLibraryOn(t, ctx, cA)
	hashB := buildLibraryOn(t, ctx, cB)
	if hashA != hashB {
		t.Fatalf("workers disagree on the library hash: %s vs %s", hashA, hashB)
	}

	specs, err := fleet.Partition(fleet.ShardSpec{
		LibraryHash: hashA,
		Engine:      "hillclimb",
		Seed:        4,
		Evaluations: 800,
	}, 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}

	// Sequential reference: every shard on worker A, merged in order.
	shCtx := shardContext()
	var seq []*fleet.ShardResult
	for _, spec := range specs {
		req := shCtx
		req.Version = fleet.ProtocolVersion
		req.Shard = spec
		resp, err := cA.SearchShard(ctx, req)
		if err != nil {
			t.Fatalf("sequential SearchShard: %v", err)
		}
		seq = append(seq, &fleet.ShardResult{Points: resp.Points})
	}
	want := fleet.ResultFromArchive(fleet.Merge(seq)).Points
	if len(want) == 0 {
		t.Fatal("sequential reference produced no archive survivors")
	}

	wA := &axclient.ShardWorker{Client: cA, Context: shCtx}
	wB := &axclient.ShardWorker{Client: cB, Context: shCtx}

	// Fleet run with a fault: worker A's first attempt dies mid-flight,
	// forcing a retry or a reissue to worker B.
	var faults int64
	coord := &fleet.Coordinator{
		Workers: []fleet.Worker{wA, wB},
		Opts: fleet.Options{
			FaultInject: func(worker string, shard, attempt int) error {
				if worker == wA.Name() && atomic.AddInt64(&faults, 1) == 1 {
					return fmt.Errorf("injected: %s lost shard %d", worker, shard)
				}
				return nil
			},
		},
	}
	arch, stats, err := coord.Search(ctx, specs)
	if err != nil {
		t.Fatalf("fleet Search: %v", err)
	}
	if stats.Failures == 0 {
		t.Errorf("fault was not injected: stats %+v", stats)
	}
	got := fleet.ResultFromArchive(arch).Points
	if !pointsEqual(got, want) {
		t.Fatalf("fleet archive differs from the sequential merge: %d vs %d points", len(got), len(want))
	}
}

// TestFleetWorkerRestartMidRun restarts one worker in the middle of a
// fleet search: its process dies (HTTP front end and server torn down), a
// fresh instance comes back on the same address with the same disk cache,
// and the coordinator's retry loop carries the lost shard through.  The
// merged archive must still equal the sequential reference — a worker
// restart costs latency, never results.
func TestFleetWorkerRestartMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	cA, _ := startService(t, axserver.Options{Workers: 2})

	// Worker B lives on a manual listener so the test can bounce it on a
	// fixed address, and keeps its disk cache across the restart so the
	// fresh instance re-warms the library from disk.
	cacheB := t.TempDir()
	newB := func() (*axserver.Server, error) {
		return axserver.New(axserver.Options{Workers: 2, CacheDir: cacheB})
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addrB := lnB.Addr().String()
	sB, err := newB()
	if err != nil {
		t.Fatalf("axserver.New: %v", err)
	}
	hsB := &http.Server{Handler: sB.Handler()}
	go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hsB, lnB)
	cB := axclient.New("http://" + addrB)

	hashA := buildLibraryOn(t, ctx, cA)
	hashB := buildLibraryOn(t, ctx, cB)
	if hashA != hashB {
		t.Fatalf("workers disagree on the library hash: %s vs %s", hashA, hashB)
	}

	specs, err := fleet.Partition(fleet.ShardSpec{
		LibraryHash: hashA,
		Engine:      "hillclimb",
		Seed:        4,
		Evaluations: 800,
	}, 6)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}

	shCtx := shardContext()
	var seq []*fleet.ShardResult
	for _, spec := range specs {
		req := shCtx
		req.Version = fleet.ProtocolVersion
		req.Shard = spec
		resp, err := cA.SearchShard(ctx, req)
		if err != nil {
			t.Fatalf("sequential SearchShard: %v", err)
		}
		seq = append(seq, &fleet.ShardResult{Points: resp.Points})
	}
	want := fleet.ResultFromArchive(fleet.Merge(seq)).Points
	if len(want) == 0 {
		t.Fatal("sequential reference produced no archive survivors")
	}

	// restartB bounces worker B synchronously: the coordinator dispatches
	// at most one shard per worker at a time, so B is idle when its
	// FaultInject hook runs, and it is fully back up before the injected
	// error even returns.
	restartB := func() error {
		_ = hsB.Close()
		sB.Close()
		var err error
		for i := 0; ; i++ {
			lnB, err = net.Listen("tcp", addrB)
			if err == nil {
				break
			}
			if i >= 200 {
				return fmt.Errorf("rebind %s: %w", addrB, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if sB, err = newB(); err != nil {
			return fmt.Errorf("restart worker B: %w", err)
		}
		hsB = &http.Server{Handler: sB.Handler()}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hsB, lnB)
		return nil
	}
	defer func() {
		_ = hsB.Close()
		sB.Close()
	}()

	wA := &axclient.ShardWorker{Client: cA, Context: shCtx}
	wB := &axclient.ShardWorker{Client: cB, Context: shCtx}

	var restarts int64
	coord := &fleet.Coordinator{
		Workers: []fleet.Worker{wA, wB},
		Opts: fleet.Options{
			Retries:           8,
			RetryBackoff:      50 * time.Millisecond,
			MaxWorkerFailures: -1, // the restarted B must keep pulling shards
			FaultInject: func(worker string, shard, attempt int) error {
				// Only a first attempt: it is never a speculative
				// duplicate, whose failure the coordinator would drop
				// uncounted if the original finished first.
				if worker == wB.Name() && attempt == 1 && atomic.AddInt64(&restarts, 1) == 1 {
					if err := restartB(); err != nil {
						return err
					}
					return fmt.Errorf("injected: worker %s restarted before shard %d", worker, shard)
				}
				return nil
			},
		},
	}
	arch, stats, err := coord.Search(ctx, specs)
	if err != nil {
		t.Fatalf("fleet Search across worker restart: %v", err)
	}
	if atomic.LoadInt64(&restarts) == 0 {
		t.Fatal("worker B was never dispatched a shard; restart path untested")
	}
	if stats.Failures == 0 {
		t.Errorf("restart fault was not injected: stats %+v", stats)
	}
	got := fleet.ResultFromArchive(arch).Points
	if !pointsEqual(got, want) {
		t.Fatalf("post-restart fleet archive differs from the sequential merge: %d vs %d points", len(got), len(want))
	}
}

// TestShardWorkerUnknownLibrary: a 404 from the remote worker maps onto
// fleet.ErrUnknownLibrary so the coordinator fails fast.
func TestShardWorkerUnknownLibrary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c, _ := startService(t, axserver.Options{Workers: 1})
	w := &axclient.ShardWorker{Client: c, Context: shardContext()}
	_, err := w.RunShard(ctx, fleet.ShardSpec{
		LibraryHash: "sha256-not-in-cache",
		Engine:      "hillclimb",
		Seed:        1,
		Evaluations: 100,
	})
	if !errors.Is(err, fleet.ErrUnknownLibrary) {
		t.Fatalf("err = %v, want fleet.ErrUnknownLibrary", err)
	}
}
