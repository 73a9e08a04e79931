// Package ml implements the supervised regression engines the autoAx
// methodology uses to estimate QoR and hardware cost without simulation or
// synthesis (paper §2.3), plus the fidelity metric used to rank them
// (Table 3).
//
// Every engine from the paper's comparison is reimplemented from scratch
// on the standard library: random forest, CART decision tree, k-nearest
// neighbours, Bayesian ridge, partial least squares, Lasso, AdaBoost.R2,
// least-angle regression, gradient boosting, a multilayer perceptron,
// Gaussian-process regression, kernel ridge and a plain SGD linear model.
// Engines mirror scikit-learn's *default* behaviour — including the
// defaults that hurt (kernel methods and SGD receive raw, unscaled
// features exactly as the paper's experiment fed them), which is what
// produces Table 3's characteristic ranking.
package ml

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Regressor is the common supervised-learning interface: fit on rows of X
// against y, then predict scalar targets.
type Regressor interface {
	Fit(x [][]float64, y []float64) error
	Predict(x []float64) float64
}

// ErrNoData is returned by Fit when the training set is empty, ragged or
// holds a NaN.
var ErrNoData = errors.New("ml: empty or inconsistent training data")

// checkXY validates training data shape and rejects NaN, which has no
// place in the < ordering the tree engines split on.
func checkXY(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return ErrNoData
	}
	d := len(x[0])
	if d == 0 {
		return ErrNoData
	}
	for i, r := range x {
		if len(r) != d || math.IsNaN(y[i]) {
			return ErrNoData
		}
		for _, v := range r {
			if math.IsNaN(v) {
				return ErrNoData
			}
		}
	}
	return nil
}

// PredictAll applies r to every row.
func PredictAll(r Regressor, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = r.Predict(row)
	}
	return out
}

// Fidelity returns the fraction of sample pairs (i < j) whose predicted
// values stand in the same relation (<, =, >) as their true values — the
// model-quality criterion autoAx optimizes instead of accuracy (§2.3).
// Value ties are compared with tolerance eps relative to the value range.
func Fidelity(pred, real []float64) float64 {
	if len(pred) != len(real) || len(pred) < 2 {
		return 0
	}
	lo, hi := real[0], real[0]
	for _, v := range real {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	eps := (hi - lo) * 1e-9
	agree, total := 0, 0
	for i := 0; i < len(pred); i++ {
		for j := i + 1; j < len(pred); j++ {
			total++
			if cmp(real[i], real[j], eps) == cmp(pred[i], pred[j], eps) {
				agree++
			}
		}
	}
	return float64(agree) / float64(total)
}

func cmp(a, b, eps float64) int {
	switch {
	case a-b > eps:
		return 1
	case b-a > eps:
		return -1
	default:
		return 0
	}
}

// Pearson returns the linear correlation coefficient.
func Pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Scaler standardizes features to zero mean and unit variance; constant
// features are left centred.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler learns standardization parameters from x.
func FitScaler(x [][]float64) *Scaler {
	d := len(x[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, r := range x {
		for j, v := range r {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, r := range x {
		for j, v := range r {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns standardized copies of the rows.
func (s *Scaler) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, r := range x {
		out[i] = s.TransformRow(r)
	}
	return out
}

// TransformRow standardizes a single row into a fresh slice.
func (s *Scaler) TransformRow(r []float64) []float64 {
	o := make([]float64, len(r))
	for j, v := range r {
		o[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return o
}

// EngineSpec names a constructor so experiments can enumerate the Table 3
// engines uniformly.
type EngineSpec struct {
	Name string
	New  func(seed int64) Regressor
}

// Engines lists the Table 3 learning engines in the paper's row order.
func Engines() []EngineSpec {
	return []EngineSpec{
		{"Random Forest", func(seed int64) Regressor { return NewRandomForest(100, seed) }},
		{"Decision Tree", func(seed int64) Regressor { return NewDecisionTree(0, 2) }},
		{"K-Neighbors", func(seed int64) Regressor { return NewKNN(5) }},
		{"Bayesian Ridge", func(seed int64) Regressor { return NewBayesianRidge() }},
		{"Partial least squares", func(seed int64) Regressor { return NewPLS(2) }},
		// Lasso's scikit-learn default α = 1 zeroes every weight when the
		// target spans [0,1] (SSIM): the paper tunes engines whose fidelity
		// is insufficient (§2.3), so the registry uses a workable α.
		{"Lasso", func(seed int64) Regressor { return NewLasso(0.01, 1000) }},
		{"Ada Boost", func(seed int64) Regressor { return NewAdaBoostR2(50, seed) }},
		{"Least-angle", func(seed int64) Regressor { return NewLARS(0) }},
		{"Gradient Boosting", func(seed int64) Regressor { return NewGradientBoosting(100, 0.1, 3, seed) }},
		{"MLP neural network", func(seed int64) Regressor { return NewMLP([]int{100}, 200, seed) }},
		{"Gaussian process", func(seed int64) Regressor { return NewGaussianProcess(1.0, 1e-10) }},
		{"Kernel ridge", func(seed int64) Regressor { return NewKernelRidge(1.0, 0) }},
		{"Stochastic Gradient Descent", func(seed int64) Regressor { return NewSGD(0.01, 100, seed) }},
	}
}

// EngineByName returns the spec with the given name.
func EngineByName(name string) (EngineSpec, error) {
	for _, e := range Engines() {
		if e.Name == name {
			return e, nil
		}
	}
	return EngineSpec{}, fmt.Errorf("ml: unknown engine %q", name)
}

// argsortAsc returns indices sorting v ascending (stable).
func argsortAsc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx
}
