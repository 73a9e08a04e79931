package dse

import (
	"context"
	"fmt"
	"sync"

	"autoax/internal/accel"
	"autoax/internal/acl"
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

	// tablesOnce builds the leaf tables of forest models once: they are
	// immutable and shared by every estimator and climb drawn from these
	// models.  Set QoR/HW before the first estimate; they must not be
	// reassigned afterwards.
	tablesOnce  sync.Once
	qorLT, hwLT *ml.LeafTables // non-nil when the engine is a forest
}

// tables builds the forest models' leaf tables on first use.  A forest
// that tests a feature outside the space's layout panics here, as its
// Predict would on a short feature vector.
func (m *Models) tables() {
	m.tablesOnce.Do(func() {
		// The two builds are independent: run them side by side.
		errs := par.Each(context.TODO(), 2, func(i int) (err error) {
			if i == 0 {
				m.qorLT, err = m.leafTables("QoR", m.QoR, func(c *acl.Circuit) float64 { return c.WMED })
			} else {
				m.hwLT, err = m.leafTables("HW", m.HW,
					func(c *acl.Circuit) float64 { return c.Area },
					func(c *acl.Circuit) float64 { return c.Power },
					func(c *acl.Circuit) float64 { return c.Delay })
			}
			return err
		})
		if err := firstError(errs); err != nil {
			panic(err)
		}
	})
}

// leafTables builds the leaf tables of a random forest whose features
// are the given circuit fields (see Space.layout), or returns nil for
// any other engine.
func (m *Models) leafTables(what string, r ml.Regressor, fields ...func(*acl.Circuit) float64) (*ml.LeafTables, error) {
	rf, ok := r.(*ml.RandomForest)
	if !ok {
		return nil, nil
	}
	lt, err := rf.LeafTables(m.Space.layout(fields...))
	if err != nil {
		return nil, fmt.Errorf("dse: %s model: %w", what, err)
	}
	return lt, nil
}

// scorers returns a fresh scorer per model: a forest's ml.TableScorer,
// or the regressor's Predict over reusable buffers.  Their state makes
// the pair unsafe for concurrent use.
func (m *Models) scorers() (qor, hw scorer) {
	m.tables()
	return newScorer(m.qorLT, m.QoR, m.Space.QoRFeaturesInto, len(m.Space)),
		newScorer(m.hwLT, m.HW, m.Space.HWFeaturesInto, 3*len(m.Space))
}

func newScorer(lt *ml.LeafTables, r ml.Regressor, features func([]int, []float64) []float64, n int) scorer {
	if lt != nil {
		return lt.NewScorer()
	}
	return &fullPredictor{r: r, features: features, x: make([]float64, n)}
}

// Estimator returns the fast configuration estimator backed by the models.
// The estimator owns its scorers' state, so it is NOT safe for
// concurrent use; call Estimator() once per goroutine.  Random-forest
// models score through leaf tables built once per Models (see
// ml.LeafTables): one AND per tree and operation instead of a walk of
// each of 100 trees, and no allocation per call.  Other engines score
// through their own Predict, which may allocate (KNN, MLP and the
// feature scaler do on every call).
func (m *Models) Estimator() Estimator {
	qor, hw := m.scorers()
	return func(cfg []int) (float64, float64) { return qor.Reset(cfg), hw.Reset(cfg) }
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
