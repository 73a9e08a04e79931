package ml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// forestProblem builds a deterministic nonlinear regression problem.
func forestProblem(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64() * 100
			s += row[j] * float64(j+1)
		}
		x[i] = row
		y[i] = 1/(1+s/100) + rng.NormFloat64()*0.01
	}
	return x, y
}

// sequentialFit reproduces the historical single-goroutine forest fit; the
// parallel Fit must stay bit-identical to it.
func sequentialFit(f *RandomForest, x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(f.seed))
	f.trees = make([]*DecisionTree, f.NTrees)
	n := len(x)
	for k := 0; k < f.NTrees; k++ {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tr := NewDecisionTree(0, 2)
		tr.rng = rand.New(rand.NewSource(rng.Int63()))
		if err := tr.Fit(bx, by); err != nil {
			return err
		}
		f.trees[k] = tr
	}
	return nil
}

// TestRandomForestFitParallelDeterministic pins the parallel Fit to the
// sequential reference: identical trees node for node, at any GOMAXPROCS.
func TestRandomForestFitParallelDeterministic(t *testing.T) {
	x, y := forestProblem(120, 4, 3)
	seq := NewRandomForest(12, 42)
	if err := sequentialFit(seq, x, y); err != nil {
		t.Fatal(err)
	}
	par := NewRandomForest(12, 42)
	if err := par.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(seq.trees) != len(par.trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(seq.trees), len(par.trees))
	}
	for k := range seq.trees {
		if !reflect.DeepEqual(seq.trees[k].nodes, par.trees[k].nodes) {
			t.Fatalf("tree %d differs between sequential and parallel fit", k)
		}
	}
}

// TestCompiledForestMatchesPredict pins the full table estimate (Reset,
// the per-configuration path of Estimator)
// bit-identical to the tree-walking RandomForest.Predict on a fitted
// forest, at random configurations and at every training point.  (It
// keeps the name of the compiled forest the tables replaced.)
func TestCompiledForestMatchesPredict(t *testing.T) {
	c, train := fittedTableCase(9, 5, 1, 120, 200, 20)
	lt, err := c.rf.LeafTables(c.group, c.values)
	if err != nil {
		t.Fatal(err)
	}
	s := lt.NewScorer()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		choice := c.randomChoice(rng, 5)
		if got, want := s.Reset(choice), c.rf.Predict(c.features(choice)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d at %v: tables %v != tree-walking %v", trial, choice, got, want)
		}
	}
	// Training points too (exact-memorization leaves).
	for i, choice := range train {
		if got, want := s.Reset(choice), c.rf.Predict(c.features(choice)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("train row %d: tables %v != tree-walking %v", i, got, want)
		}
	}
}

// TestCompiledForestPredictNoAllocs guards the zero-allocation contract
// of the full table estimate on a fitted forest.
func TestCompiledForestPredictNoAllocs(t *testing.T) {
	c, train := fittedTableCase(5, 3, 1, 20, 80, 8)
	lt, err := c.rf.LeafTables(c.group, c.values)
	if err != nil {
		t.Fatal(err)
	}
	s := lt.NewScorer()
	i := 0
	if n := testing.AllocsPerRun(200, func() { i++; s.Reset(train[i%len(train)]) }); n != 0 {
		t.Fatalf("TableScorer.Reset allocates %v times per call", n)
	}
}

// TestCompiledForestEmptyTree covers the unfitted-tree guard: a forest
// of unfitted trees builds tables that score what Predict returns.
func TestCompiledForestEmptyTree(t *testing.T) {
	rf := NewRandomForest(2, 1)
	rf.trees = []*DecisionTree{NewDecisionTree(0, 2), NewDecisionTree(0, 2)}
	lt, err := rf.LeafTables([]int{0}, [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lt.NewScorer().Reset([]int{0}), rf.Predict([]float64{1}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("empty-tree forest: tables %v != tree-walking %v", got, want)
	}
}
