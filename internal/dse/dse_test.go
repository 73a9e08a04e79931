package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/imagedata"
	"autoax/internal/pareto"
)

// withGOMAXPROCS runs fn at GOMAXPROCS p (0 keeps the current value) and
// restores the previous value.
func withGOMAXPROCS(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// syntheticSpace builds a Space of fake characterized circuits with a
// controlled error/area trade-off: circuit i of op k has WMED i·(k+1) and
// area (size−i)·10.
func syntheticSpace(ops, size int) Space {
	s := make(Space, ops)
	for k := 0; k < ops; k++ {
		lib := make([]*acl.Circuit, size)
		for i := 0; i < size; i++ {
			lib[i] = &acl.Circuit{
				Name: "c", Op: acl.Op{Kind: acl.Add, Width: 8},
				Area:  float64(size-i) * 10,
				Power: float64(size-i) * 2,
				Delay: float64(size-i) * 0.1,
				WMED:  float64(i) * float64(k+1),
			}
		}
		s[k] = lib
	}
	return s
}

// syntheticEstimator: QoR = 1 − ΣWMED/norm (monotone), HW = Σarea.
func syntheticEstimator(s Space) Estimator {
	var norm float64
	for _, lib := range s {
		norm += lib[len(lib)-1].WMED
	}
	return func(cfg []int) (float64, float64) {
		var w, a float64
		for k, i := range cfg {
			w += s[k][i].WMED
			a += s[k][i].Area
		}
		return 1 - w/(norm+1), a
	}
}

// syntheticQoR is a QoR regressor computing 1 − ΣWMED/(norm+1) over the
// QoR features — the same floats, summed in the same order, as
// syntheticEstimator's QoR.
type syntheticQoR struct{ norm float64 }

func (syntheticQoR) Fit([][]float64, []float64) error { return nil }

func (r syntheticQoR) Predict(x []float64) float64 {
	var w float64
	for _, v := range x {
		w += v
	}
	return 1 - w/(r.norm+1)
}

// syntheticModels wraps syntheticEstimator's objectives in Models so the
// engines and Exhaustive can run on them: every estimate is bit-equal to
// syntheticEstimator(s)'s (NaiveArea sums the areas in operation order).
func syntheticModels(s Space) *Models {
	var norm float64
	for _, lib := range s {
		norm += lib[len(lib)-1].WMED
	}
	return &Models{QoR: syntheticQoR{norm}, HW: &NaiveArea{}, Space: s}
}

// mustRun runs a named engine and fails the test on error.
func mustRun(t *testing.T, engine string, m *Models, opt SearchOptions) *pareto.Archive[[]int] {
	t.Helper()
	a, err := RunEngine(context.Background(), engine, m, opt)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return a
}

func TestSpaceBasics(t *testing.T) {
	s := syntheticSpace(3, 5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.NumConfigs(); got != 125 {
		t.Errorf("NumConfigs = %f", got)
	}
	rng := rand.New(rand.NewSource(1))
	cfg := s.RandomConfig(rng)
	if len(cfg) != 3 {
		t.Fatal("bad config length")
	}
	n := s.Neighbor(cfg, rng)
	diff := 0
	for i := range n {
		if n[i] != cfg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("neighbor changed %d positions, want 1", diff)
	}
}

func TestFeatureLayout(t *testing.T) {
	s := syntheticSpace(2, 4)
	cfg := []int{1, 3}
	q := s.QoRFeatures(cfg)
	if len(q) != 2 || q[0] != 1 || q[1] != 6 {
		t.Errorf("QoR features = %v", q)
	}
	h := s.HWFeatures(cfg)
	if len(h) != 6 {
		t.Fatalf("HW features = %v", h)
	}
	// areas first, then powers, then delays.
	if h[0] != 30 || h[1] != 10 || h[2] != 6 || h[3] != 2 {
		t.Errorf("HW features = %v", h)
	}
}

func TestHillClimbFindsTradeoffFront(t *testing.T) {
	s := syntheticSpace(4, 8)
	arch := mustRun(t, "hillclimb", syntheticModels(s), SearchOptions{Evaluations: 20000, Seed: 1})
	if arch.Len() < 10 {
		t.Fatalf("archive too small: %d", arch.Len())
	}
	// With a monotone objective pair, the true front is cfgs where each op
	// picks the same "level"; extremes must be found.
	pts := arch.Points()
	bestQ, bestA := math.Inf(1), math.Inf(1)
	for _, p := range pts {
		bestQ = math.Min(bestQ, p[0]) // −QoR
		bestA = math.Min(bestA, p[1])
	}
	if bestQ > -0.999 {
		t.Errorf("hill climb missed the exact corner: best −QoR %f", bestQ)
	}
	wantMinArea := float64(len(s)) * 10 // every op picks its smallest
	if bestA > wantMinArea+1e-9 {
		t.Errorf("hill climb missed the min-area corner: %f vs %f", bestA, wantMinArea)
	}
}

func TestHillClimbDeterministic(t *testing.T) {
	m := syntheticModels(syntheticSpace(3, 6))
	a1 := mustRun(t, "hillclimb", m, SearchOptions{Evaluations: 5000, Seed: 9})
	a2 := mustRun(t, "hillclimb", m, SearchOptions{Evaluations: 5000, Seed: 9})
	if a1.Len() != a2.Len() {
		t.Errorf("non-deterministic archive size %d vs %d", a1.Len(), a2.Len())
	}
}

func TestHillClimbBeatsRandomSearch(t *testing.T) {
	// Table 4's qualitative claim at matched budgets.
	s := syntheticSpace(5, 10)
	m := syntheticModels(s)
	optimal, err := Exhaustive(m)
	if err != nil {
		t.Fatal(err)
	}
	hc := mustRun(t, "hillclimb", m, SearchOptions{Evaluations: 3000, Seed: 3})
	rs := mustRun(t, "random", m, SearchOptions{Evaluations: 3000, Seed: 3})
	dh := pareto.FrontDistances(hc.Points(), optimal.Points())
	dr := pareto.FrontDistances(rs.Points(), optimal.Points())
	if dh.FromAvg >= dr.FromAvg {
		t.Errorf("hill climb FromAvg %f should beat random %f", dh.FromAvg, dr.FromAvg)
	}
	if hc.Len() <= rs.Len() {
		t.Errorf("hill climb found %d front members, random %d", hc.Len(), rs.Len())
	}
}

func TestExhaustiveMatchesBruteForceOnTiny(t *testing.T) {
	s := syntheticSpace(2, 3)
	est := syntheticEstimator(s)
	arch, err := Exhaustive(syntheticModels(s))
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over all 9 configs.
	var pts []pareto.Point
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			q, h := est([]int{i, j})
			pts = append(pts, pareto.Point{-q, h})
		}
	}
	front := pareto.Front(pts)
	if arch.Len() != len(front) {
		t.Errorf("exhaustive archive %d vs brute force front %d", arch.Len(), len(front))
	}
}

func TestExhaustiveRefusesHugeSpace(t *testing.T) {
	s := syntheticSpace(17, 30) // 30^17 ≫ limit
	if _, err := Exhaustive(syntheticModels(s)); err == nil {
		t.Error("expected size-limit error")
	}
}

func TestUniformSelection(t *testing.T) {
	s := syntheticSpace(3, 10)
	cfgs := UniformSelection(s, 8)
	if len(cfgs) == 0 || len(cfgs) > 8 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	// First level (ε=0): every op picks its minimum-WMED circuit.
	for k := range s {
		if s[k][cfgs[0][k]].WMED != 0 {
			t.Errorf("ε=0 config picked WMED %f for op %d", s[k][cfgs[0][k]].WMED, k)
		}
	}
}

func TestNaiveModels(t *testing.T) {
	ns := NaiveSSIM{}
	if got := ns.Predict([]float64{1, 2, 3}); got != -6 {
		t.Errorf("naive SSIM = %f", got)
	}
	na := &NaiveArea{}
	x := [][]float64{{10, 20, 1, 2, 0.1, 0.2}}
	if err := na.Fit(x, []float64{30}); err != nil {
		t.Fatal(err)
	}
	if got := na.Predict(x[0]); got != 30 {
		t.Errorf("naive area = %f", got)
	}
}

func TestSortArchive(t *testing.T) {
	a := &pareto.Archive[[]int]{}
	a.Insert(pareto.Point{-0.5, 10}, []int{0})
	a.Insert(pareto.Point{-0.9, 30}, []int{1})
	a.Insert(pareto.Point{-0.7, 20}, []int{2})
	pts, cfgs := SortArchive(a)
	if pts[0][0] != -0.9 || cfgs[0][0] != 1 {
		t.Errorf("sort order wrong: %v", pts)
	}
	if pts[2][0] != -0.5 {
		t.Errorf("sort order wrong: %v", pts)
	}
}

// TestExhaustivePayloadsNotAliased is the regression test for the odometer
// aliasing bug: Exhaustive used to archive the live odometer slice, so
// every archived payload ended up equal to the final odometer state.  Each
// payload must be a distinct configuration that reproduces its archived
// point under the estimator.
func TestExhaustivePayloadsNotAliased(t *testing.T) {
	s := syntheticSpace(3, 4)
	est := syntheticEstimator(s)
	var arch *pareto.Archive[[]int]
	var err error
	withGOMAXPROCS(1, func() { arch, err = Exhaustive(syntheticModels(s)) })
	if err != nil {
		t.Fatal(err)
	}
	if arch.Len() < 2 {
		t.Fatalf("trade-off space produced a front of %d", arch.Len())
	}
	pts, cfgs := arch.Points(), arch.Payloads()
	distinct := map[string]bool{}
	for i, cfg := range cfgs {
		distinct[fmt.Sprint(cfg)] = true
		for k, idx := range cfg {
			if idx < 0 || idx >= len(s[k]) {
				t.Fatalf("payload %v holds an out-of-range index for op %d", cfg, k)
			}
		}
		q, h := est(cfg)
		if pts[i][0] != -q || pts[i][1] != h {
			t.Errorf("payload %v does not reproduce its archived point %v", cfg, pts[i])
		}
	}
	if len(distinct) != len(cfgs) {
		t.Errorf("archived payloads alias each other: %d distinct of %d", len(distinct), len(cfgs))
	}
}

// TestExhaustiveParallelMatchesSequential checks the sharded enumeration
// is bit-identical to the frozen sequential enumeration: same points, same
// payloads, same equal-point tie-breaks, at every GOMAXPROCS (including
// ones that split the keyspace unevenly, and 0: the ambient value).
func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	s := syntheticSpace(4, 5) // 625 configurations
	seq := refExhaustive(s, syntheticEstimator(s))
	m := syntheticModels(s)
	archiveMap := func(a *pareto.Archive[[]int]) map[string]string {
		m := make(map[string]string, a.Len())
		pts, cfgs := a.Points(), a.Payloads()
		for i := range pts {
			m[fmt.Sprint(pts[i])] = fmt.Sprint(cfgs[i])
		}
		return m
	}
	want := archiveMap(seq)
	for _, procs := range []int{1, 2, 3, 8, 0} {
		var got *pareto.Archive[[]int]
		var err error
		withGOMAXPROCS(procs, func() { got, err = Exhaustive(m) })
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != seq.Len() {
			t.Fatalf("GOMAXPROCS %d: archive size %d, sequential %d", procs, got.Len(), seq.Len())
		}
		for pt, cfg := range archiveMap(got) {
			if want[pt] != cfg {
				t.Errorf("GOMAXPROCS %d: point %s carries %s, sequential %s", procs, pt, cfg, want[pt])
			}
		}
	}
}

// TestNeighborResamplesSingleCircuitOps checks the GetNeighbour move never
// wastes an estimator evaluation on an operation that cannot move: a draw
// landing on a single-circuit library resamples among multi-circuit ops.
func TestNeighborResamplesSingleCircuitOps(t *testing.T) {
	single := []*acl.Circuit{{Name: "only", Op: acl.Op{Kind: acl.Add, Width: 8}}}
	multi := syntheticSpace(1, 4)[0]
	s := Space{single, single, multi, single}
	cfg := []int{0, 0, 2, 0}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := s.Neighbor(cfg, rng)
		diff := 0
		for k := range n {
			if n[k] != cfg[k] {
				diff++
			}
		}
		if diff != 1 || n[2] == cfg[2] {
			t.Fatalf("draw %d: neighbor %v of %v must move exactly op 2", i, n, cfg)
		}
	}
	// With no movable operation at all the configuration is returned
	// unchanged (and still as a fresh copy).
	locked := Space{single, single}
	base := []int{0, 0}
	n := locked.Neighbor(base, rng)
	if n[0] != 0 || n[1] != 0 {
		t.Fatalf("fully locked space moved: %v", n)
	}
	n[0] = 9
	if base[0] != 0 {
		t.Error("Neighbor returned the input slice instead of a copy")
	}
}

// realSobelFixture builds a real (tiny) evaluator and reduced-style space
// for the Sobel detector, for exercising the precise-evaluation path.
func realSobelFixture(t *testing.T) (*accel.Evaluator, Space) {
	t.Helper()
	lib, err := acl.Build([]acl.BuildSpec{
		{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 12},
		{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 12},
		{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 10},
	}, 1, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := apps.Sobel()
	ev, err := accel.NewEvaluator(app, imagedata.BenchmarkSet(2, 24, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ops := app.Graph.OpNodes()
	s := make(Space, len(ops))
	for i, id := range ops {
		s[i] = lib.For(app.Graph.Nodes[id].Op)
		if len(s[i]) == 0 {
			t.Fatalf("library has no circuits for op %d", i)
		}
	}
	return ev, s
}

// TestEvaluateAllParallelMatchesSequential checks the acceptance criterion
// of the sharded evaluator: per-shard clones produce results identical to
// the sequential path, order-stable at their input indices, and onDone
// fires exactly once per configuration at every GOMAXPROCS (0: the
// ambient value).
func TestEvaluateAllParallelMatchesSequential(t *testing.T) {
	ev, s := realSobelFixture(t)
	cfgs := s.RandomConfigs(12, 3)
	var seq []accel.Result
	var err error
	withGOMAXPROCS(1, func() { seq, err = EvaluateAll(context.Background(), ev, s, cfgs, nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 0} {
		var done atomic.Int64
		var got []accel.Result
		withGOMAXPROCS(procs, func() {
			got, err = EvaluateAll(context.Background(), ev, s, cfgs, func() { done.Add(1) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("GOMAXPROCS %d: results differ from sequential\nseq: %+v\ngot: %+v", procs, seq, got)
		}
		if n := done.Load(); n != int64(len(cfgs)) {
			t.Fatalf("GOMAXPROCS %d: onDone fired %d times, want %d", procs, n, len(cfgs))
		}
	}
}

// TestEvaluateAllParallelCancellation checks the bare context error
// surfaces when the caller cancels, with one evaluator or several.
func TestEvaluateAllParallelCancellation(t *testing.T) {
	ev, s := realSobelFixture(t)
	cfgs := s.RandomConfigs(8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		var err error
		withGOMAXPROCS(procs, func() { _, err = EvaluateAll(ctx, ev, s, cfgs, nil) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("GOMAXPROCS %d: err = %v, want context.Canceled", procs, err)
		}
	}
}

// TestEvaluateAllParallelFirstError checks a failing batch aborts with an
// error naming the lowest failing index — the one a sequential loop hits
// — at every GOMAXPROCS, even when a later configuration also fails.
func TestEvaluateAllParallelFirstError(t *testing.T) {
	ev, s := realSobelFixture(t)
	// Poison the space: an extra circuit of the wrong operation appended
	// to some library makes any configuration selecting it fail synthesis
	// (Flatten rejects the op mismatch).
	k := -1
	for i := range s {
		if s[i][0].Op != s[0][0].Op {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("fixture has a single op type")
	}
	poisoned := append(Space(nil), s...)
	poisoned[k] = append(append([]*acl.Circuit(nil), s[k]...), s[0][0])
	// Draw from the unpoisoned space so only the doctored configs below
	// can ever select the mismatched circuit.
	cfgs := s.RandomConfigs(8, 5)
	bad := 1
	for _, i := range []int{bad, 5} {
		cfgs[i] = make([]int, len(poisoned))
		cfgs[i][k] = len(poisoned[k]) - 1 // the mismatched circuit
	}
	for _, procs := range []int{1, 2, 4, 0} {
		var err error
		withGOMAXPROCS(procs, func() { _, err = EvaluateAll(context.Background(), ev, poisoned, cfgs, nil) })
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: poisoned batch succeeded", procs)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("configuration %d", bad)) {
			t.Errorf("GOMAXPROCS %d: error %q does not name configuration %d", procs, err, bad)
		}
	}
}
