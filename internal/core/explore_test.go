package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/dse"
	"autoax/internal/fleet"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// exploreFixture is a Sobel pipeline trained up to the explore stage,
// built once per test binary: the bench's add8:30/add9:30/sub10:25
// library (a reduced space of about 2.4·10⁵ configurations, which a
// 10⁵-estimate budget cannot cover, so seeds and the climb count show in
// the archive) with smoke-scale 24/12 samples and a budget of two climbs.
var exploreFixture struct {
	once sync.Once
	p    *Pipeline
	err  error
}

// explorePipeline returns a shallow copy of the trained fixture; copies
// share the immutable models.
func explorePipeline(t *testing.T) *Pipeline {
	t.Helper()
	f := &exploreFixture
	f.once.Do(func() {
		lib, err := acl.Build([]acl.BuildSpec{
			{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 30},
			{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 30},
			{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 25},
		}, 1, acl.Options{})
		if err != nil {
			f.err = err
			return
		}
		f.p, f.err = NewPipeline(apps.Sobel(), lib, imagedata.BenchmarkSet(2, 32, 24, 7), Config{
			TrainConfigs: 24,
			TestConfigs:  12,
			Engine:       ml.Engines()[0],
			SearchEvals:  2 * climbEvals,
			Stagnation:   50,
			Seed:         1,
		})
		if f.err == nil {
			f.err = f.p.TrainContext(context.Background())
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	q := *f.p
	return &q
}

// explore runs the fixture's explore stage with the given budget and
// search engine.
func explore(t *testing.T, evals int, engine string) *pareto.Archive[[]int] {
	t.Helper()
	p := explorePipeline(t)
	p.Opt.SearchEvals, p.Opt.SearchEngine = evals, engine
	if err := p.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p.Pseudo
}

// sameArchive fails unless the archives hold the same points (compared as
// float bits) carrying the same configurations, in the same order.
func sameArchive(t *testing.T, got, want *pareto.Archive[[]int], label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: archive len %d, want %d", label, got.Len(), want.Len())
	}
	gp, wp := got.Points(), want.Points()
	gc, wc := got.Payloads(), want.Payloads()
	for i := range wp {
		for d := range wp[i] {
			if math.Float64bits(gp[i][d]) != math.Float64bits(wp[i][d]) {
				t.Fatalf("%s: point %d[%d] = %v, want %v", label, i, d, gp[i][d], wp[i][d])
			}
		}
		for d := range wc[i] {
			if gc[i][d] != wc[i][d] {
				t.Fatalf("%s: config %d = %v, want %v", label, i, gc[i], wc[i])
			}
		}
	}
}

// TestExploreSplitMatchesFleet pins the split climb to the fleet: a
// pipeline's pseudo archive equals a k-shard Coordinator search with k
// LocalWorkers over fleet.Partition of the same spec and models.
func TestExploreSplitMatchesFleet(t *testing.T) {
	p := explorePipeline(t)
	for _, evals := range []int{2 * climbEvals, 3*climbEvals + 7} {
		k := evals / climbEvals
		specs, err := fleet.Partition(fleet.ShardSpec{
			LibraryHash: "lib",
			Seed:        p.Opt.Seed + 300,
			Evaluations: evals,
			Stagnation:  p.Opt.Stagnation,
		}, k)
		if err != nil {
			t.Fatal(err)
		}
		src := fleet.ModelSourceFunc(func(context.Context, string) (*dse.Models, error) { return p.Models, nil })
		workers := make([]fleet.Worker, k)
		for i := range workers {
			workers[i] = &fleet.LocalWorker{Source: src}
		}
		co := &fleet.Coordinator{Workers: workers}
		want, _, err := co.Search(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		sameArchive(t, explore(t, evals, ""), want, "split vs fleet")
	}
}

// TestExploreCoreCountInvariant pins that the climb count, and so the
// archive, never depends on GOMAXPROCS.
func TestExploreCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *pareto.Archive[[]int]
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := explore(t, 2*climbEvals, "")
		if want == nil {
			want = got
			continue
		}
		sameArchive(t, got, want, fmt.Sprintf("GOMAXPROCS %d", procs))
	}
}

// TestExploreSingleRunPaths pins the unsplit paths: a hillclimb budget
// below two climbs and every other engine give exactly the archive of
// one dse.RunEngine call with the search seed itself.
func TestExploreSingleRunPaths(t *testing.T) {
	p := explorePipeline(t)
	for _, c := range []struct {
		engine string
		evals  int
	}{
		{"hillclimb", 2*climbEvals - 1},
		{"random", 2 * climbEvals},
		{"nsga2", 2 * climbEvals},
	} {
		want, err := dse.RunEngine(context.Background(), c.engine, p.Models, dse.SearchOptions{
			Evaluations: c.evals,
			Stagnation:  p.Opt.Stagnation,
			Seed:        p.Opt.Seed + 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameArchive(t, explore(t, c.evals, c.engine), want, c.engine)
	}
}

// TestExploreProgress pins that the concurrent climbs' progress sums to
// exactly SearchEvals and never reports more.
func TestExploreProgress(t *testing.T) {
	p := explorePipeline(t)
	rec := &stageRecorder{}
	p.Observer = rec.observe
	if err := p.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := int64(p.Opt.SearchEvals)
	var max int64
	for _, e := range rec.events {
		if e.stage != StageExplore {
			continue
		}
		if e.total != want {
			t.Fatalf("explore total %d, want %d", e.total, want)
		}
		if e.done > max {
			max = e.done
		}
	}
	last := rec.events[len(rec.events)-1]
	if last.stage != StageExplore || last.done != want || max != want {
		t.Fatalf("explore progress ended at %+v (max %d), want done %d", last, max, want)
	}
}

// TestExploreCancellation cancels mid-explore: the stage returns
// ctx.Err(), sets no pseudo archive, and leaves no climb goroutine behind.
func TestExploreCancellation(t *testing.T) {
	p := explorePipeline(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Observer = func(stage string, done, total int64) {
		if stage == StageExplore && done >= total/4 {
			cancel()
		}
	}
	if err := p.ExploreContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.Pseudo != nil {
		t.Fatal("cancelled explore set a pseudo archive")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the cancelled explore, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
