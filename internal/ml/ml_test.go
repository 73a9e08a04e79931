package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthLinear builds y = 3x₀ − 2x₁ + 0.5x₂ + 7 (+ optional noise).
func synthLinear(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		r := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		x[i] = r
		y[i] = 3*r[0] - 2*r[1] + 0.5*r[2] + 7 + rng.NormFloat64()*noise
	}
	return x, y
}

// synthNonlinear builds y = sin(x₀) + x₁² / 20 + step(x₂).
func synthNonlinear(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		r := []float64{rng.Float64() * 6, rng.Float64()*10 - 5, rng.Float64()}
		x[i] = r
		step := 0.0
		if r[2] > 0.5 {
			step = 2
		}
		y[i] = math.Sin(r[0]) + r[1]*r[1]/20 + step
	}
	return x, y
}

// R2 returns the coefficient of determination, the fit score of the
// regression tests.
func R2(pred, real []float64) float64 {
	var mean float64
	for _, v := range real {
		mean += v
	}
	mean /= float64(len(real))
	var ssRes, ssTot float64
	for i := range real {
		ssRes += (real[i] - pred[i]) * (real[i] - pred[i])
		ssTot += (real[i] - mean) * (real[i] - mean)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

func fitPredictR2(t *testing.T, r Regressor, x [][]float64, y []float64, xt [][]float64, yt []float64) float64 {
	t.Helper()
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return R2(PredictAll(r, xt), yt)
}

func TestBayesianRidgeOnNoisyLinear(t *testing.T) {
	x, y := synthLinear(300, 2, 3)
	xt, yt := synthLinear(80, 0, 4)
	if r2 := fitPredictR2(t, NewBayesianRidge(), x, y, xt, yt); r2 < 0.98 {
		t.Errorf("bayesian ridge R² = %f", r2)
	}
}

func TestLassoShrinksIrrelevantFeature(t *testing.T) {
	// y depends only on x₀; x₁, x₂ are noise → Lasso should nearly zero them.
	rng := rand.New(rand.NewSource(5))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = 4 * x[i][0]
	}
	l := NewLasso(1.0, 2000)
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.w[1]) > 0.5 || math.Abs(l.w[2]) > 0.5 {
		t.Errorf("irrelevant weights not shrunk: %v", l.w)
	}
	if math.Abs(l.w[0]) < 1 {
		t.Errorf("relevant weight vanished: %v", l.w)
	}
}

func TestLARSMatchesLeastSquaresAtFullPath(t *testing.T) {
	x, y := synthLinear(150, 0, 6)
	xt, yt := synthLinear(40, 0, 7)
	if r2 := fitPredictR2(t, NewLARS(0), x, y, xt, yt); r2 < 0.999 {
		t.Errorf("full-path LARS R² = %f", r2)
	}
}

func TestLARSEarlyStopSparse(t *testing.T) {
	x, y := synthLinear(150, 0, 8)
	l := NewLARS(1)
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, w := range l.w {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero > 1 {
		t.Errorf("1-step LARS should keep ≤1 active feature, got %d", nonzero)
	}
}

func TestPLSOnLinear(t *testing.T) {
	x, y := synthLinear(200, 1, 9)
	xt, yt := synthLinear(60, 0, 10)
	if r2 := fitPredictR2(t, NewPLS(2), x, y, xt, yt); r2 < 0.95 {
		t.Errorf("PLS R² = %f", r2)
	}
}

func TestDecisionTreeMemorizesTraining(t *testing.T) {
	x, y := synthNonlinear(200, 11)
	tr := NewDecisionTree(0, 2)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(PredictAll(tr, x), y); r2 < 0.999999 {
		t.Errorf("unbounded tree should fit training exactly, R² = %f", r2)
	}
}

func TestDecisionTreeGeneralizesStep(t *testing.T) {
	x, y := synthNonlinear(500, 12)
	xt, yt := synthNonlinear(150, 13)
	if r2 := fitPredictR2(t, NewDecisionTree(0, 2), x, y, xt, yt); r2 < 0.8 {
		t.Errorf("tree test R² = %f", r2)
	}
}

func TestRandomForestBeatsSingleTreeOnNoise(t *testing.T) {
	x, y := synthNonlinear(400, 14)
	// Add label noise.
	rng := rand.New(rand.NewSource(15))
	yn := append([]float64(nil), y...)
	for i := range yn {
		yn[i] += rng.NormFloat64() * 0.3
	}
	xt, yt := synthNonlinear(150, 16)
	tree := fitPredictR2(t, NewDecisionTree(0, 2), x, yn, xt, yt)
	forest := fitPredictR2(t, NewRandomForest(30, 1), x, yn, xt, yt)
	if forest <= tree {
		t.Errorf("forest R² %f should beat tree R² %f on noisy labels", forest, tree)
	}
}

func TestRandomForestDeterministicInSeed(t *testing.T) {
	x, y := synthNonlinear(150, 17)
	f1 := NewRandomForest(10, 42)
	f2 := NewRandomForest(10, 42)
	if err := f1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := x[i]
		if f1.Predict(q) != f2.Predict(q) {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestAdaBoostR2(t *testing.T) {
	x, y := synthNonlinear(400, 18)
	xt, yt := synthNonlinear(120, 19)
	if r2 := fitPredictR2(t, NewAdaBoostR2(30, 1), x, y, xt, yt); r2 < 0.75 {
		t.Errorf("AdaBoost R² = %f", r2)
	}
}

func TestGradientBoosting(t *testing.T) {
	x, y := synthNonlinear(400, 20)
	xt, yt := synthNonlinear(120, 21)
	if r2 := fitPredictR2(t, NewGradientBoosting(100, 0.1, 3, 1), x, y, xt, yt); r2 < 0.9 {
		t.Errorf("gradient boosting R² = %f", r2)
	}
}

func TestKNN(t *testing.T) {
	x, y := synthNonlinear(600, 22)
	xt, yt := synthNonlinear(100, 23)
	// Raw (unscaled) distances under-weight the step feature, so the bar
	// is modest — the same effect keeps kNN mid-pack in Table 3.
	if r2 := fitPredictR2(t, NewKNN(5), x, y, xt, yt); r2 < 0.6 {
		t.Errorf("kNN R² = %f", r2)
	}
	// k=1 memorizes.
	k1 := NewKNN(1)
	if err := k1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(PredictAll(k1, x), y); r2 < 0.999999 {
		t.Errorf("1-NN train R² = %f", r2)
	}
}

func TestMLPOnLinear(t *testing.T) {
	x, y := synthLinear(300, 0.5, 24)
	xt, yt := synthLinear(80, 0, 25)
	if r2 := fitPredictR2(t, NewMLP([]int{32}, 120, 1), x, y, xt, yt); r2 < 0.95 {
		t.Errorf("MLP R² = %f", r2)
	}
}

func TestGaussianProcessInterpolates(t *testing.T) {
	// GP with near-zero noise reproduces training targets on scaled
	// features where the kernel is informative.
	rng := rand.New(rand.NewSource(26))
	n := 60
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 3, rng.Float64() * 3}
		y[i] = math.Sin(x[i][0]) * math.Cos(x[i][1])
	}
	gp := NewGaussianProcess(1.0, 1e-10)
	if err := gp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(PredictAll(gp, x), y); r2 < 0.999 {
		t.Errorf("GP train R² = %f (should interpolate)", r2)
	}
}

func TestKernelRidgeCollapsesOnRawScales(t *testing.T) {
	// The paper feeds raw features: squared distances ≫ 1/γ make the RBF
	// kernel vanish and the model predicts ≈0 — its Table 3 failure mode.
	x, y := synthLinear(150, 0, 27)
	for i := range x {
		for j := range x[i] {
			x[i][j] *= 100 // exaggerate the scale problem
		}
	}
	kr := NewKernelRidge(1.0, 0)
	if err := kr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(PredictAll(kr, x), y); r2 > 0.5 {
		t.Errorf("kernel ridge on raw scales should collapse, R² = %f", r2)
	}
}

func TestFidelityProperties(t *testing.T) {
	real := []float64{1, 2, 3, 4, 5}
	if f := Fidelity(real, real); f != 1 {
		t.Errorf("perfect model fidelity = %f", f)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if f := Fidelity(rev, real); f != 0 {
		t.Errorf("anti-model fidelity = %f", f)
	}
	// Order is what matters, not magnitude.
	scaled := []float64{10, 20, 30, 40, 50}
	if f := Fidelity(scaled, real); f != 1 {
		t.Errorf("monotone transform fidelity = %f", f)
	}
}

func TestFidelityHandlesTies(t *testing.T) {
	real := []float64{1, 1, 2}
	pred := []float64{5, 5, 9}
	if f := Fidelity(pred, real); f != 1 {
		t.Errorf("tie-preserving fidelity = %f", f)
	}
	predBreaksTie := []float64{5, 6, 9}
	if f := Fidelity(predBreaksTie, real); f == 1 {
		t.Error("broken tie should reduce fidelity")
	}
}

// Property: fidelity is invariant under any strictly increasing transform
// of the predictions.
func TestQuickFidelityMonotoneInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		pred := make([]float64, len(raw))
		for i, v := range raw {
			pred[i] = math.Atan(v) * 3 // strictly increasing
		}
		base := Fidelity(raw, raw)
		tr := Fidelity(pred, raw)
		return math.Abs(base-tr) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	real := []float64{1, 2, 5}
	if got := R2(pred, real); math.Abs(got-(1-(4.0/3)/(26.0/9))) > 1e-12 {
		t.Errorf("R² = %f", got)
	}
	if got := R2(real, real); got != 1 {
		t.Errorf("R² of perfect = %f", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %f", got)
	}
}

func TestScalerRoundTrip(t *testing.T) {
	x, _ := synthLinear(100, 0, 30)
	s := FitScaler(x)
	xs := s.Transform(x)
	// Mean ≈ 0, std ≈ 1 per column.
	d := len(x[0])
	for j := 0; j < d; j++ {
		var mean, sq float64
		for _, r := range xs {
			mean += r[j]
		}
		mean /= float64(len(xs))
		for _, r := range xs {
			sq += (r[j] - mean) * (r[j] - mean)
		}
		std := math.Sqrt(sq / float64(len(xs)))
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Errorf("col %d: mean %g std %g", j, mean, std)
		}
	}
}

func TestEnginesRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Engines() {
		names[e.Name] = true
		r := e.New(1)
		if r == nil {
			t.Fatalf("%s: nil regressor", e.Name)
		}
	}
	// All 13 Table 3 learning engines (the naïve models live in the
	// experiment driver, not here).
	want := []string{
		"Random Forest", "Decision Tree", "K-Neighbors", "Bayesian Ridge",
		"Partial least squares", "Lasso", "Ada Boost", "Least-angle",
		"Gradient Boosting", "MLP neural network", "Gaussian process",
		"Kernel ridge", "Stochastic Gradient Descent",
	}
	if len(names) != len(want) {
		t.Errorf("got %d engines, want %d", len(names), len(want))
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("missing engine %q", n)
		}
	}
	if _, err := EngineByName("Random Forest"); err != nil {
		t.Error(err)
	}
	if _, err := EngineByName("nope"); err == nil {
		t.Error("expected error for unknown engine")
	}
}

func TestAllEnginesFitWithoutError(t *testing.T) {
	x, y := synthNonlinear(120, 40)
	for _, e := range Engines() {
		r := e.New(7)
		if err := r.Fit(x, y); err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		p := r.Predict(x[0])
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Errorf("%s: non-finite prediction %f", e.Name, p)
		}
	}
}

func TestEnginesRejectEmptyData(t *testing.T) {
	for _, e := range Engines() {
		r := e.New(1)
		if err := r.Fit(nil, nil); err == nil {
			t.Errorf("%s: expected error on empty data", e.Name)
		}
	}
}

// TestEnginesRejectNaN: a NaN anywhere in x or y is refused by every
// engine, so no split search ever sees a value outside the < ordering.
func TestEnginesRejectNaN(t *testing.T) {
	x, y := synthNonlinear(40, 9)
	nan := math.NaN()
	for _, where := range []string{"x", "y"} {
		for _, e := range Engines() {
			xs := make([][]float64, len(x))
			for i, r := range x {
				xs[i] = append([]float64(nil), r...)
			}
			ys := append([]float64(nil), y...)
			if where == "x" {
				xs[17][1] = nan
			} else {
				ys[23] = nan
			}
			if err := e.New(1).Fit(xs, ys); err != ErrNoData {
				t.Errorf("%s with NaN in %s: err = %v, want ErrNoData", e.Name, where, err)
			}
		}
	}
}
