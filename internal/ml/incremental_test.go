package ml

import (
	"math"
	"math/rand"
	"testing"
)

// randomForestAndData fits a forest on random data and returns it with a
// probe generator drawing from the training distribution (values collide
// with split thresholds' neighborhoods often).
func randomForestAndData(t testing.TB, seed int64, samples, features, trees int) (*RandomForest, *CompiledForest, func(*rand.Rand) []float64) {
	x := make([][]float64, samples)
	y := make([]float64, samples)
	rng := rand.New(rand.NewSource(seed))
	for i := range x {
		row := make([]float64, features)
		s := 0.0
		for j := range row {
			// A coarse grid makes exact threshold collisions common.
			row[j] = float64(rng.Intn(40)) * 2.5
			s += row[j]
		}
		x[i] = row
		y[i] = 1 / (1 + s/100)
	}
	rf := NewRandomForest(trees, seed)
	if err := rf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe := func(rng *rand.Rand) []float64 {
		row := make([]float64, features)
		for j := range row {
			row[j] = float64(rng.Intn(40)) * 2.5
		}
		return row
	}
	return rf, rf.Compile(), probe
}

// TestPredictBatchMatchesScalar drives PredictBatch over random forests ×
// random batches and demands exact equality with scalar Predict and with
// the uncompiled forest.
func TestPredictBatchMatchesScalar(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		features := 2 + trial%7
		rf, cf, probe := randomForestAndData(t, int64(trial), 60+trial*17, features, 10+trial*7)
		rng := rand.New(rand.NewSource(int64(trial * 31)))
		for _, n := range []int{1, 3, 8, 17, 64} {
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = probe(rng)
			}
			// Feature-major matrix.
			x := make([]float64, features*n)
			for f := 0; f < features; f++ {
				for i := 0; i < n; i++ {
					x[f*n+i] = rows[i][f]
				}
			}
			out := make([]float64, n)
			cf.PredictBatch(x, n, out)
			for i := range rows {
				want := cf.Predict(rows[i])
				if out[i] != want {
					t.Fatalf("trial %d n=%d point %d: PredictBatch %v, Predict %v", trial, n, i, out[i], want)
				}
				if walked := rf.Predict(rows[i]); out[i] != walked {
					t.Fatalf("trial %d n=%d point %d: PredictBatch %v, tree-walking forest %v", trial, n, i, out[i], walked)
				}
			}
		}
	}
}

// TestIncrementalPredictorMatchesPredict drives random Move/Accept/Reject
// sequences and demands every returned prediction equal Predict on the
// same feature vector, including after rejections roll state back.
func TestIncrementalPredictorMatchesPredict(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		features := 2 + trial%9
		_, cf, probe := randomForestAndData(t, int64(trial+100), 80, features, 30)
		rng := rand.New(rand.NewSource(int64(trial * 7)))
		p := cf.NewIncremental()
		x := probe(rng)
		if got, want := p.Reset(x), cf.Predict(x); got != want {
			t.Fatalf("trial %d: Reset %v, Predict %v", trial, got, want)
		}
		base := append([]float64(nil), x...)
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0: // occasional full reset to a fresh point
				x = probe(rng)
				base = append(base[:0], x...)
				if got, want := p.Reset(x), cf.Predict(x); got != want {
					t.Fatalf("trial %d step %d: Reset %v, Predict %v", trial, step, got, want)
				}
			default:
				maxC := 3
				if features < maxC {
					maxC = features
				}
				nc := 1 + rng.Intn(maxC)
				changed := make([]int, 0, nc)
				for len(changed) < nc {
					f := rng.Intn(features)
					dup := false
					for _, g := range changed {
						if g == f {
							dup = true
						}
					}
					if !dup {
						changed = append(changed, f)
					}
				}
				for _, f := range changed {
					x[f] = float64(rng.Intn(40)) * 2.5
				}
				if got, want := p.Move(x, changed), cf.Predict(x); got != want {
					t.Fatalf("trial %d step %d: Move %v, Predict %v", trial, step, got, want)
				}
				if rng.Intn(2) == 0 {
					p.Accept()
					base = append(base[:0], x...)
				} else {
					p.Reject()
					x = append(x[:0], base...)
					// After a reject the cached state must predict the
					// base point again.
					probeChanged := []int{rng.Intn(features)}
					if got, want := p.Move(x, probeChanged), cf.Predict(x); got != want {
						t.Fatalf("trial %d step %d: post-Reject Move %v, Predict %v", trial, step, got, want)
					}
					p.Reject()
				}
			}
		}
	}
}

// TestIncrementalDenseResetOracle forces dense mode — where Reset walks
// leaf values only and leaves the path masks stale — then Resets to
// random points between short Move/Accept/Reject runs, demanding every
// prediction bit-identical to CompiledForest.Predict.
func TestIncrementalDenseResetOracle(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		features := 2 + trial%6
		_, cf, probe := randomForestAndData(t, int64(trial+500), 70, features, 12+trial*9)
		rng := rand.New(rand.NewSource(int64(trial*13 + 1)))
		p := cf.NewIncremental()
		p.dense = true
		for reset := 0; reset < 40; reset++ {
			x := probe(rng)
			if got, want := p.Reset(x), cf.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d reset %d: Reset %v, Predict %v", trial, reset, got, want)
			}
			for step := 0; step < 5; step++ {
				f := rng.Intn(features)
				old := x[f]
				x[f] = float64(rng.Intn(40)) * 2.5
				if got, want := p.Move(x, []int{f}), cf.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d reset %d step %d: Move %v, Predict %v", trial, reset, step, got, want)
				}
				if rng.Intn(2) == 0 {
					p.Accept()
				} else {
					p.Reject()
					x[f] = old
				}
			}
		}
		if !p.dense {
			t.Fatalf("trial %d: predictor left dense mode", trial)
		}
	}
}

// TestIncrementalPredictorZeroAllocs pins the warm-path allocation count
// of the climb's inner step: Move + Reject and Move + Accept must not
// allocate.
func TestIncrementalPredictorZeroAllocs(t *testing.T) {
	_, cf, probe := randomForestAndData(t, 42, 60, 6, 50)
	rng := rand.New(rand.NewSource(9))
	p := cf.NewIncremental()
	x := probe(rng)
	p.Reset(x)
	changed := []int{0}
	vals := []float64{1.25, 7.5, 20, 47.5, 62.5}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		changed[0] = i % 6
		x[changed[0]] = vals[i%len(vals)]
		p.Move(x, changed)
		if i%3 == 0 {
			p.Accept()
		} else {
			p.Reject()
		}
	})
	if allocs != 0 {
		t.Fatalf("incremental Move/resolve allocated %.1f times per run, want 0", allocs)
	}
}

// TestPredictBatchZeroAllocs pins PredictBatch's zero-allocation
// contract.
func TestPredictBatchZeroAllocs(t *testing.T) {
	_, cf, probe := randomForestAndData(t, 43, 60, 5, 40)
	rng := rand.New(rand.NewSource(10))
	const n = 32
	x := make([]float64, 5*n)
	for i := 0; i < n; i++ {
		row := probe(rng)
		for f := 0; f < 5; f++ {
			x[f*n+i] = row[f]
		}
	}
	out := make([]float64, n)
	allocs := testing.AllocsPerRun(100, func() {
		cf.PredictBatch(x, n, out)
	})
	if allocs != 0 {
		t.Fatalf("PredictBatch allocated %.1f times per run, want 0", allocs)
	}
}
