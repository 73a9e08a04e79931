package dse

import (
	"math/rand"
	"strings"
	"testing"

	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// trainedModels fits real random forests on synthetic training data over a
// synthetic space, exercising the leaf-table estimator path.
func trainedModels(t *testing.T, ops, size int) *Models {
	t.Helper()
	s := syntheticSpace(ops, size)
	rng := rand.New(rand.NewSource(4))
	var xq, xh [][]float64
	var yq, yh []float64
	for i := 0; i < 60; i++ {
		cfg := s.RandomConfig(rng)
		q := s.QoRFeatures(cfg)
		h := s.HWFeatures(cfg)
		var sw, sa float64
		for _, v := range q {
			sw += v
		}
		for _, v := range h[:ops] {
			sa += v
		}
		xq, yq = append(xq, q), append(yq, 1/(1+sw))
		xh, yh = append(xh, h), append(yh, sa)
	}
	qor := ml.NewRandomForest(10, 1)
	if err := qor.Fit(xq, yq); err != nil {
		t.Fatal(err)
	}
	hw := ml.NewRandomForest(10, 2)
	if err := hw.Fit(xh, yh); err != nil {
		t.Fatal(err)
	}
	return &Models{QoR: qor, HW: hw, Space: s}
}

// TestEstimatorMatchesDirectPredict pins the leaf-table estimator to the
// plain Predict-on-fresh-slices path bit for bit.
func TestEstimatorMatchesDirectPredict(t *testing.T) {
	m := trainedModels(t, 3, 6)
	est := m.Estimator()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		cfg := m.Space.RandomConfig(rng)
		q, h := est(cfg)
		wantQ := m.QoR.Predict(m.Space.QoRFeatures(cfg))
		wantH := m.HW.Predict(m.Space.HWFeatures(cfg))
		if q != wantQ || h != wantH {
			t.Fatalf("trial %d: estimator (%v, %v) != direct (%v, %v)", trial, q, h, wantQ, wantH)
		}
	}
}

// TestEstimatorZeroAllocs guards the hot-loop contract: one estimator call
// allocates nothing, so a hill-climb step is allocation-free on the
// estimation side.
func TestEstimatorZeroAllocs(t *testing.T) {
	m := trainedModels(t, 3, 6)
	est := m.Estimator()
	cfg := []int{1, 2, 3}
	if n := testing.AllocsPerRun(500, func() { est(cfg) }); n != 0 {
		t.Fatalf("estimator allocates %v times per call, want 0", n)
	}
}

// TestExhaustiveEstimatorsMatchesShared checks the enumeration over
// per-shard estimators equals the frozen single-estimator enumeration
// point for point, in archive order, at GOMAXPROCS 2, 4 and 7.
func TestExhaustiveEstimatorsMatchesShared(t *testing.T) {
	s := syntheticSpace(3, 5)
	want := refExhaustive(s, syntheticEstimator(s))
	m := syntheticModels(s)
	for _, procs := range []int{2, 4, 7} {
		var got *pareto.Archive[[]int]
		var err error
		withGOMAXPROCS(procs, func() { got, err = Exhaustive(m) })
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("GOMAXPROCS %d: %d front points, want %d", procs, got.Len(), want.Len())
		}
		wp, gp := want.Points(), got.Points()
		for i := range wp {
			for d := range wp[i] {
				if wp[i][d] != gp[i][d] {
					t.Fatalf("GOMAXPROCS %d: point %d differs: %v vs %v", procs, i, gp[i], wp[i])
				}
			}
		}
	}
}

// TestModelsRejectForestOutsideSpace: a forest trained on more features
// than the space lays out fails loudly when its leaf tables are built,
// as its Predict would on the space's shorter feature vectors.
func TestModelsRejectForestOutsideSpace(t *testing.T) {
	wide := trainedModels(t, 4, 6)
	m := &Models{QoR: wide.QoR, HW: wide.HW, Space: syntheticSpace(3, 6)}
	defer func() {
		r := recover()
		err, _ := r.(error)
		if err == nil || !strings.Contains(err.Error(), "dse: QoR model: ml: leaf tables: tree") {
			t.Fatalf("recovered %v, want the QoR forest's out-of-layout feature", r)
		}
	}()
	m.Estimator()
}
