package dse

import (
	"context"
	"fmt"
	"sync"

	"autoax/internal/accel"
	"autoax/internal/ml"
	"autoax/internal/par"
)

// Estimator predicts (QoR, hardware cost) of a configuration without
// simulation or synthesis.  QoR is higher-better (SSIM), hw lower-better
// (area).
type Estimator func(cfg []int) (qor, hw float64)

// Models couples the two trained regressors of paper §2.3 with the space
// whose features they were trained on.
type Models struct {
	QoR   ml.Regressor
	HW    ml.Regressor
	Space Space

	// predOnce caches the compiled prediction functions: the arena a
	// random forest flattens into is immutable and shared by every
	// estimator drawn from these models.  Set QoR/HW before the first
	// Estimator call; they must not be reassigned afterwards.
	predOnce        sync.Once
	qorPred, hwPred func([]float64) float64
	qorCF, hwCF     *ml.CompiledForest // non-nil when the engine is a forest
}

// compile memoizes the fastest available prediction paths for both models.
func (m *Models) compile() {
	m.predOnce.Do(func() {
		m.qorCF, m.qorPred = predictFunc(m.QoR)
		m.hwCF, m.hwPred = predictFunc(m.HW)
	})
}

// Estimator returns the fast configuration estimator backed by the models.
// The estimator owns reusable feature buffers — one call performs zero
// allocations — so it is NOT safe for concurrent use; call Estimator()
// once per goroutine (the closure cost is two small buffers; the compiled
// prediction arenas are built once per Models and shared by every
// estimator).  Random-forest models are flattened through
// ml.RandomForest.Compile so the millions of queries Algorithm 1 issues
// walk one contiguous node arena instead of 100 pointer-chased trees.
func (m *Models) Estimator() Estimator {
	m.compile()
	qor, hw := m.qorPred, m.hwPred
	fq := make([]float64, len(m.Space))
	fh := make([]float64, 3*len(m.Space))
	return func(cfg []int) (float64, float64) {
		return qor(m.Space.QoRFeaturesInto(cfg, fq)), hw(m.Space.HWFeaturesInto(cfg, fh))
	}
}

// BatchEstimator estimates a whole batch of configurations at once,
// writing (QoR, hw) for cfgs[j] to qor[j], hw[j] (both length ≥
// len(cfgs)).  Estimates are bit-identical to len(cfgs) Estimator calls;
// forest-backed models run ml.CompiledForest.PredictBatch over a
// struct-of-arrays feature matrix so the per-point arena walks overlap.
// The returned closure owns reusable feature buffers — steady-state calls
// with a stable batch size perform zero allocations — so, like Estimator,
// it is NOT safe for concurrent use; draw one per goroutine.
type BatchEstimator func(cfgs [][]int, qor, hw []float64)

// BatchEstimator returns the batched counterpart of Estimator.
func (m *Models) BatchEstimator() BatchEstimator {
	m.compile()
	qorB := batchPredict(m.qorCF, m.qorPred)
	hwB := batchPredict(m.hwCF, m.hwPred)
	var fq, fh []float64
	return func(cfgs [][]int, qor, hw []float64) {
		n := len(cfgs)
		if n == 0 {
			return
		}
		batchEstimates.Inc()
		if cap(fq) < len(m.Space)*n {
			fq = make([]float64, len(m.Space)*n)
		}
		if cap(fh) < 3*len(m.Space)*n {
			fh = make([]float64, 3*len(m.Space)*n)
		}
		qorB(m.Space.QoRFeaturesBatchInto(cfgs, fq[:cap(fq)]), n, qor[:n])
		hwB(m.Space.HWFeaturesBatchInto(cfgs, fh[:cap(fh)]), n, hw[:n])
	}
}

// predictFunc returns the fastest available prediction path for a fitted
// regressor: the compiled arena (and its handle, for batch inference) for
// random forests, the regressor's own Predict otherwise.  Predictions are
// bit-identical either way.
func predictFunc(r ml.Regressor) (*ml.CompiledForest, func([]float64) float64) {
	if rf, ok := r.(*ml.RandomForest); ok {
		cf := rf.Compile()
		return cf, cf.Predict
	}
	return nil, r.Predict
}

// batchPredict adapts a prediction path to the feature-major batch shape:
// compiled forests use their native PredictBatch; anything else gathers
// each point into a reusable row and calls the scalar path (same floats).
func batchPredict(cf *ml.CompiledForest, scalar func([]float64) float64) func(x []float64, n int, out []float64) {
	if cf != nil {
		return cf.PredictBatch
	}
	var row []float64
	return func(x []float64, n int, out []float64) {
		nf := len(x) / n
		if cap(row) < nf {
			row = make([]float64, nf)
		}
		r := row[:nf]
		for i := 0; i < n; i++ {
			for f := range r {
				r[f] = x[f*n+i]
			}
			out[i] = scalar(r)
		}
	}
}

// BuildTrainingData converts precisely evaluated configurations into the
// two supervised learning problems: WMED features → SSIM and
// area/power/delay features → synthesized area.
func BuildTrainingData(s Space, cfgs [][]int, res []accel.Result) (xq [][]float64, yq []float64, xh [][]float64, yh []float64) {
	for i, cfg := range cfgs {
		xq = append(xq, s.QoRFeatures(cfg))
		yq = append(yq, res[i].SSIM)
		xh = append(xh, s.HWFeatures(cfg))
		yh = append(yh, res[i].Area)
	}
	return
}

// TrainModels fits one engine type to both estimation problems, the QoR
// and HW models concurrently (each has its own seed, so the models do not
// depend on the order the fits finish).  A panic inside a fit is returned
// as that fit's error.
func TrainModels(spec ml.EngineSpec, seed int64, s Space, cfgs [][]int, res []accel.Result) (*Models, error) {
	xq, yq, xh, yh := BuildTrainingData(s, cfgs, res)
	fits := [2]struct {
		what string
		x    [][]float64
		y    []float64
		r    ml.Regressor
	}{{what: "QoR", x: xq, y: yq}, {what: "HW", x: xh, y: yh}}
	errs := par.Each(context.TODO(), len(fits), func(i int) error {
		f := &fits[i]
		f.r = spec.New(seed + int64(i))
		return f.r.Fit(f.x, f.y)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dse: fitting %s model (%s): %w", fits[i].what, spec.Name, err)
		}
	}
	return &Models{QoR: fits[0].r, HW: fits[1].r, Space: s}, nil
}

// NaiveSSIM is the paper's naïve QoR model: M_SSIM(C) = −Σ WMED_k(c).
// It tests whether accelerator QoR correlates with the plain cumulative
// arithmetic error.
type NaiveSSIM struct{}

// Fit implements ml.Regressor (no parameters to learn).
func (NaiveSSIM) Fit(x [][]float64, y []float64) error { return nil }

// Predict implements ml.Regressor.
func (NaiveSSIM) Predict(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s -= v
	}
	return s
}

// NaiveArea is the paper's naïve hardware model: M_a(C) = Σ area(c).
// It is blind to cross-component synthesis effects (dead-logic stripping
// behind a high-error component), which is exactly where it loses fidelity.
type NaiveArea struct{ n int }

// Fit implements ml.Regressor; it only records the feature layout.
func (a *NaiveArea) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x[0])%3 != 0 {
		return ml.ErrNoData
	}
	a.n = len(x[0]) / 3
	return nil
}

// Predict implements ml.Regressor: the sum of the area features.
func (a *NaiveArea) Predict(x []float64) float64 {
	n := a.n
	if n == 0 {
		n = len(x) / 3
	}
	s := 0.0
	for _, v := range x[:n] {
		s += v
	}
	return s
}

// ModelFidelity evaluates a fitted regressor on (x, y) pairs with the
// paper's pairwise-order fidelity.
func ModelFidelity(r ml.Regressor, x [][]float64, y []float64) float64 {
	return ml.Fidelity(ml.PredictAll(r, x), y)
}
