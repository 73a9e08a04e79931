package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoax/internal/acl"
	"autoax/internal/dse"
	"autoax/internal/pareto"
)

// testReg is a deterministic fitted regressor: a fixed linear combination
// of the features.  Fleet tests exercise dispatch and merge, not model
// quality, so a closed-form estimator keeps them fast and exact.
type testReg struct{ scale, offset float64 }

func (testReg) Fit(x [][]float64, y []float64) error { return nil }
func (r testReg) Predict(x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return r.offset + r.scale*sum
}

// testModels builds a synthetic 4-op × 5-circuit space with a clean
// QoR/area tradeoff (WMED rises, area falls along each library).
func testModels() *dse.Models {
	space := make(dse.Space, 4)
	for i := range space {
		lib := make([]*acl.Circuit, 5)
		for j := range lib {
			lib[j] = &acl.Circuit{
				Name:  fmt.Sprintf("c%d_%d", i, j),
				WMED:  float64(j) * 0.01 * float64(i+1),
				Area:  float64(5-j) * 10 * float64(i+1),
				Power: float64(j + 1),
				Delay: 1,
			}
		}
		space[i] = lib
	}
	return &dse.Models{
		QoR:   testReg{scale: -1, offset: 1}, // SSIM-like: falls with error
		HW:    testReg{scale: 1},             // area-like: sum of hw features
		Space: space,
	}
}

const testHash = "lib-sha256-testvector"

// testSource resolves testHash to a shared testModels instance.
func testSource(m *dse.Models) ModelSource {
	return ModelSourceFunc(func(_ context.Context, hash string) (*dse.Models, error) {
		if hash != testHash {
			return nil, fmt.Errorf("%w: %s", ErrUnknownLibrary, hash)
		}
		return m, nil
	})
}

func testSpecs(t *testing.T, engine string, shards int) []ShardSpec {
	t.Helper()
	specs, err := Partition(ShardSpec{
		LibraryHash: testHash,
		Engine:      engine,
		Seed:        4,
		Evaluations: 600,
	}, shards)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return specs
}

// sequentialMerge is the single-process reference: run every shard on one
// local worker in the given order, then merge in shard-index order.
func sequentialMerge(t *testing.T, m *dse.Models, specs []ShardSpec, order []int) *pareto.Archive[[]int] {
	t.Helper()
	w := &LocalWorker{Source: testSource(m)}
	results := make([]*ShardResult, len(specs))
	for _, i := range order {
		res, err := w.RunShard(context.Background(), specs[i])
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		results[i] = res
	}
	return Merge(results)
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mustIdentical fails unless the two archives are bit-identical: same
// points (compared as float bits) carrying the same configurations.
func mustIdentical(t *testing.T, got, want *pareto.Archive[[]int], label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: archive len %d, want %d", label, got.Len(), want.Len())
	}
	gp, wp := got.Points(), want.Points()
	gc, wc := got.Payloads(), want.Payloads()
	for i := range wp {
		if len(gp[i]) != len(wp[i]) {
			t.Fatalf("%s: point %d dims %d, want %d", label, i, len(gp[i]), len(wp[i]))
		}
		for d := range wp[i] {
			if math.Float64bits(gp[i][d]) != math.Float64bits(wp[i][d]) {
				t.Fatalf("%s: point %d[%d] = %v, want %v", label, i, d, gp[i][d], wp[i][d])
			}
		}
		if len(gc[i]) != len(wc[i]) {
			t.Fatalf("%s: config %d len mismatch", label, i)
		}
		for d := range wc[i] {
			if gc[i][d] != wc[i][d] {
				t.Fatalf("%s: config %d[%d] = %d, want %d", label, i, d, gc[i][d], wc[i][d])
			}
		}
	}
}

func localWorkers(m *dse.Models, n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = &LocalWorker{ID: fmt.Sprintf("w%d", i), Source: testSource(m)}
	}
	return ws
}

// TestPartition pins the budget split and the seed-derivation discipline.
func TestPartition(t *testing.T) {
	specs := testSpecs(t, "", 4)
	if len(specs) != 4 {
		t.Fatalf("got %d shards, want 4", len(specs))
	}
	total := 0
	for i, s := range specs {
		total += s.Evaluations
		if s.Engine != dse.DefaultEngineName {
			t.Errorf("shard %d engine %q, want default spelled out", i, s.Engine)
		}
		want := dse.DeriveSeed(dse.DefaultEngineName, fmt.Sprintf("fleet/shard/%d", i), 4)
		if s.Seed != want {
			t.Errorf("shard %d seed %d, want %d", i, s.Seed, want)
		}
		if s.LibraryHash != testHash {
			t.Errorf("shard %d lost the library hash", i)
		}
	}
	if total != 600 {
		t.Errorf("shard budgets sum to %d, want 600", total)
	}

	// Explicit and defaulted engine spellings derive identical shards.
	explicit := testSpecs(t, dse.DefaultEngineName, 4)
	for i := range specs {
		if specs[i] != explicit[i] {
			t.Errorf("shard %d differs between empty and explicit engine", i)
		}
	}

	// More shards than evaluations clamps instead of minting empty work.
	small, err := Partition(ShardSpec{LibraryHash: testHash, Evaluations: 3}, 8)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(small) != 3 {
		t.Fatalf("clamp: got %d shards, want 3", len(small))
	}
	for i, s := range small {
		if s.Evaluations != 1 {
			t.Errorf("clamped shard %d budget %d, want 1", i, s.Evaluations)
		}
	}

	// Invalid bases are rejected.
	if _, err := Partition(ShardSpec{LibraryHash: testHash, Engine: "warp-drive", Evaluations: 10}, 2); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Partition(ShardSpec{Engine: "random", Evaluations: 10}, 2); err == nil {
		t.Error("missing library hash accepted")
	}
	if _, err := Partition(ShardSpec{LibraryHash: testHash, Evaluations: 0}, 2); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestFleetDeterminism is the tentpole property: the coordinator over
// N ∈ {1, 2, 4} workers produces an archive bit-identical to the
// sequential single-process merge of the same shard specs — and the
// reference itself is execution-order independent (shards run in reverse
// order merge identically).
func TestFleetDeterminism(t *testing.T) {
	m := testModels()
	for _, engine := range []string{"hillclimb", "random", "nsga2"} {
		specs := testSpecs(t, engine, 4)
		want := sequentialMerge(t, m, specs, identityOrder(len(specs)))
		if want.Len() == 0 {
			t.Fatalf("%s: reference archive is empty", engine)
		}

		// Execution order must not matter: reverse-order runs merge the
		// same because Merge orders by shard index, not completion.
		reversed := make([]int, len(specs))
		for i := range reversed {
			reversed[i] = len(specs) - 1 - i
		}
		mustIdentical(t, sequentialMerge(t, m, specs, reversed), want, engine+"/reversed")

		for _, n := range []int{1, 2, 4} {
			co := &Coordinator{Workers: localWorkers(m, n)}
			got, stats, err := co.Search(context.Background(), specs)
			if err != nil {
				t.Fatalf("%s/N=%d: %v", engine, n, err)
			}
			if stats.Shards != len(specs) {
				t.Fatalf("%s/N=%d: stats.Shards = %d", engine, n, stats.Shards)
			}
			mustIdentical(t, got, want, fmt.Sprintf("%s/N=%d", engine, n))
		}
	}
}

// TestFleetFaultInjection kills workers mid-shard and pins that reissue
// preserves bit-identity with the no-failure run.
func TestFleetFaultInjection(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "hillclimb", 4)
	want := sequentialMerge(t, m, specs, identityOrder(len(specs)))

	// w0 dies on its first two attempts at any shard; every shard's very
	// first attempt also fails regardless of worker.  Both kinds of
	// failure must be retried/reissued without touching the result.
	var w0Deaths atomic.Int64
	co := &Coordinator{
		Workers: localWorkers(m, 2),
		Opts: Options{
			RetryBackoff: time.Millisecond,
			FaultInject: func(worker string, shard, attempt int) error {
				if worker == "w0" && w0Deaths.Load() < 2 {
					w0Deaths.Add(1)
					return errors.New("injected: worker w0 killed mid-shard")
				}
				if attempt == 1 {
					return errors.New("injected: first attempt killed")
				}
				return nil
			},
		},
	}
	got, stats, err := co.Search(context.Background(), specs)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	mustIdentical(t, got, want, "fault-injected")
	if stats.Failures == 0 {
		t.Error("fault injection recorded no failures")
	}
	if stats.Retried+stats.Reissued == 0 {
		t.Error("failed shards were not re-dispatched")
	}
}

// TestFleetBenchesUnhealthyWorker: a worker that always dies is retired
// and the remaining worker finishes the plan with the same archive.
func TestFleetBenchesUnhealthyWorker(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "random", 4)
	want := sequentialMerge(t, m, specs, identityOrder(len(specs)))

	// w1 holds its first attempt until w0 has died once, so w0 is
	// guaranteed a dispatch (and its bench) before w1 drains the plan.
	w0Died := make(chan struct{})
	var dieOnce sync.Once
	co := &Coordinator{
		Workers: localWorkers(m, 2),
		Opts: Options{
			Retries:           10, // plenty: every w0 attempt fails
			RetryBackoff:      time.Millisecond,
			MaxWorkerFailures: 1,
			FaultInject: func(worker string, shard, attempt int) error {
				if worker == "w0" {
					dieOnce.Do(func() { close(w0Died) })
					return errors.New("injected: w0 is dead")
				}
				<-w0Died
				return nil
			},
		},
	}
	got, stats, err := co.Search(context.Background(), specs)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	mustIdentical(t, got, want, "benched")
	if stats.Benched != 1 {
		t.Errorf("stats.Benched = %d, want 1", stats.Benched)
	}
	if stats.Reissued == 0 {
		t.Error("w0's failed shards were not reissued to w1")
	}
}

// TestFleetRetryExhaustion: a shard that can never succeed fails the
// search with a shard-naming error instead of hanging or dropping data.
func TestFleetRetryExhaustion(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "hillclimb", 3)
	co := &Coordinator{
		Workers: localWorkers(m, 2),
		Opts: Options{
			Retries:      1,
			RetryBackoff: time.Millisecond,
			FaultInject: func(worker string, shard, attempt int) error {
				if shard == 1 {
					return errors.New("injected: shard 1 poisoned")
				}
				return nil
			},
		},
	}
	_, _, err := co.Search(context.Background(), specs)
	if err == nil {
		t.Fatal("poisoned shard did not fail the search")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the failing shard: %v", err)
	}
}

// TestFleetAllWorkersBenched: when every worker is unhealthy the search
// fails instead of spinning.
func TestFleetAllWorkersBenched(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "hillclimb", 2)
	co := &Coordinator{
		Workers: localWorkers(m, 2),
		Opts: Options{
			Retries:      100,
			RetryBackoff: time.Microsecond,
			FaultInject: func(worker string, shard, attempt int) error {
				return errors.New("injected: everyone is dead")
			},
		},
	}
	_, stats, err := co.Search(context.Background(), specs)
	if err == nil {
		t.Fatal("all-workers-dead search did not fail")
	}
	if stats.Benched != 2 {
		t.Errorf("stats.Benched = %d, want 2", stats.Benched)
	}
}

// TestFleetCancellation: the caller's context cancels the whole search.
func TestFleetCancellation(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "hillclimb", 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	co := &Coordinator{Workers: localWorkers(m, 2)}
	_, _, err := co.Search(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFleetUnknownLibrary: shards naming an unbuilt library fail with
// ErrUnknownLibrary once retries exhaust.
func TestFleetUnknownLibrary(t *testing.T) {
	m := testModels()
	specs, err := Partition(ShardSpec{LibraryHash: "no-such-library", Evaluations: 100}, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	co := &Coordinator{
		Workers: localWorkers(m, 1),
		Opts:    Options{Retries: -1, RetryBackoff: time.Microsecond, MaxWorkerFailures: -1},
	}
	_, _, err = co.Search(context.Background(), specs)
	if !errors.Is(err, ErrUnknownLibrary) {
		t.Fatalf("err = %v, want ErrUnknownLibrary", err)
	}
}

// TestFleetValidation: coordinator-level misconfiguration is rejected up
// front.
func TestFleetValidation(t *testing.T) {
	m := testModels()
	co := &Coordinator{}
	if _, _, err := co.Search(context.Background(), testSpecs(t, "", 2)); err == nil {
		t.Error("no-worker coordinator accepted")
	}
	co = &Coordinator{Workers: localWorkers(m, 1)}
	bad := []ShardSpec{{LibraryHash: testHash, Engine: "hillclimb", Evaluations: -5}}
	if _, _, err := co.Search(context.Background(), bad); err == nil {
		t.Error("negative-budget shard accepted")
	}
	arch, _, err := co.Search(context.Background(), nil)
	if err != nil || arch.Len() != 0 {
		t.Errorf("empty plan: arch=%v err=%v, want empty archive", arch, err)
	}
}

// TestMergeSetEquality: the merged archive equals the Pareto front of the
// union of all shard points — merging never invents or loses survivors.
func TestMergeSetEquality(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "nsga2", 3)
	w := &LocalWorker{Source: testSource(m)}
	results := make([]*ShardResult, len(specs))
	var union []pareto.Point
	for i, s := range specs {
		res, err := w.RunShard(context.Background(), s)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		results[i] = res
		for _, p := range res.Points {
			union = append(union, pareto.Point(p.Point))
		}
	}
	merged := Merge(results)
	front := pareto.Front(union)
	want := map[string]bool{}
	for _, i := range front {
		want[fmt.Sprint(union[i])] = true
	}
	got := map[string]bool{}
	for _, p := range merged.Points() {
		got[fmt.Sprint(p)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("merged archive has %d distinct points, union front has %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("union-front point %s missing from merge", k)
		}
	}
}

// funcWorker adapts a function to Worker, for workers that misbehave or
// stall on purpose.
type funcWorker struct {
	name string
	run  func(ctx context.Context, spec ShardSpec) (*ShardResult, error)
}

func (w *funcWorker) Name() string { return w.name }
func (w *funcWorker) RunShard(ctx context.Context, spec ShardSpec) (*ShardResult, error) {
	return w.run(ctx, spec)
}

// TestFleetMalformedResult: a result carrying a point without exactly two
// objectives fails its attempt instead of reaching Merge, so a malformed
// first attempt is retried to the reference archive and a worker that is
// always malformed fails the search with an error.
func TestFleetMalformedResult(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "hillclimb", 3)
	want := sequentialMerge(t, m, specs, identityOrder(len(specs)))
	local := &LocalWorker{Source: testSource(m)}
	malformed := func(always bool) Worker {
		var calls atomic.Int64
		return &funcWorker{name: "malformed", run: func(ctx context.Context, spec ShardSpec) (*ShardResult, error) {
			res, err := local.RunShard(ctx, spec)
			if err != nil {
				return nil, err
			}
			if calls.Add(1) == 1 || always {
				res.Points[0].Point = res.Points[0].Point[:1]
			}
			return res, nil
		}}
	}

	co := &Coordinator{
		Workers: []Worker{malformed(false)},
		Opts:    Options{RetryBackoff: time.Millisecond},
	}
	got, stats, err := co.Search(context.Background(), specs)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	mustIdentical(t, got, want, "malformed first attempt")
	if stats.Failures != 1 || stats.Retried != 1 {
		t.Errorf("stats = %+v, want 1 failure retried once", stats)
	}

	co = &Coordinator{
		Workers: []Worker{malformed(true)},
		Opts:    Options{Retries: 1, RetryBackoff: time.Millisecond, MaxWorkerFailures: -1},
	}
	if _, _, err := co.Search(context.Background(), specs); err == nil || !strings.Contains(err.Error(), "length 1") {
		t.Fatalf("always-malformed worker: err = %v, want one naming the point length", err)
	}
}

// TestFleetStragglerSpeculation: with one worker stalled on a shard and
// another idle, the idle worker duplicates the straggler, and the merged
// archive equals the sequential shard-by-shard merge.
func TestFleetStragglerSpeculation(t *testing.T) {
	m := testModels()
	specs := testSpecs(t, "random", 3)
	want := sequentialMerge(t, m, specs, identityOrder(len(specs)))
	local := &LocalWorker{Source: testSource(m)}

	// The slow worker holds its first shard until the search ends; the
	// fast one starts only once the slow one holds a shard, so the plan
	// can finish only through a speculative duplicate.
	slowStarted := make(chan struct{})
	var startOnce sync.Once
	slow := &funcWorker{name: "slow", run: func(ctx context.Context, spec ShardSpec) (*ShardResult, error) {
		startOnce.Do(func() { close(slowStarted) })
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	fast := &funcWorker{name: "fast", run: func(ctx context.Context, spec ShardSpec) (*ShardResult, error) {
		<-slowStarted
		return local.RunShard(ctx, spec)
	}}
	co := &Coordinator{Workers: []Worker{slow, fast}}
	got, stats, err := co.Search(context.Background(), specs)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	mustIdentical(t, got, want, "straggler")
	if stats.Speculative < 1 {
		t.Errorf("stats.Speculative = %d, want ≥ 1", stats.Speculative)
	}
	if stats.Failures != 0 {
		t.Errorf("stats.Failures = %d: the superseded straggler counted as a failure", stats.Failures)
	}
}
