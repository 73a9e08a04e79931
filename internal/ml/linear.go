package ml

import (
	"math"
	"math/rand"

	"autoax/internal/mat"
)

// BayesianRidge implements evidence-approximation Bayesian linear
// regression: the noise precision α and weight precision λ are re-estimated
// from the data (MacKay fixed-point updates), after which the model is a
// ridge with a self-tuned regularizer.
type BayesianRidge struct {
	MaxIter int
	Tol     float64
	w       []float64
	b       float64
	// Alpha and Lambda expose the converged precisions for inspection.
	Alpha, Lambda float64
}

// NewBayesianRidge returns a Bayesian ridge with scikit-learn-like
// defaults (300 iterations, tol 1e-3).
func NewBayesianRidge() *BayesianRidge { return &BayesianRidge{MaxIter: 300, Tol: 1e-3} }

// Fit implements Regressor.  The evidence fixed point uses the proper
// effective-parameter count γ = d − λ·tr((αXᵀX + λI)⁻¹); the naive γ = d
// shortcut diverges (λ → ∞ collapses the model to a constant).
func (r *BayesianRidge) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	s := FitScaler(x)
	xs := s.Transform(x)
	n, d := len(xs), len(xs[0])
	var ymean float64
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(n)
	yc := make([]float64, n)
	var yvar float64
	for i, v := range y {
		yc[i] = v - ymean
		yvar += yc[i] * yc[i]
	}
	yvar /= float64(n)
	if yvar == 0 {
		yvar = 1e-12
	}
	g := mat.FromRows(xs).Gram()
	xty := make([]float64, d)
	for i, row := range xs {
		mat.AddScaled(xty, yc[i], row)
	}

	const eps = 1e-6 // flat hyperpriors, as in scikit-learn
	alpha, lambda := 1/yvar, 1.0
	w := make([]float64, d)
	for it := 0; it < r.MaxIter; it++ {
		// Posterior mean: (αG + λI) w = α·Xᵀy.
		a := mat.New(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				a.Set(i, j, alpha*g.At(i, j))
			}
			a.Set(i, i, a.At(i, i)+lambda)
		}
		rhs := make([]float64, d)
		for j := range rhs {
			rhs[j] = alpha * xty[j]
		}
		nw, err := mat.SolveLU(a, rhs)
		if err != nil {
			return err
		}
		// γ = d − λ·tr(A⁻¹) via d solves against unit vectors.
		traceInv := 0.0
		e := make([]float64, d)
		for j := 0; j < d; j++ {
			e[j] = 1
			col, err := mat.SolveLU(a, e)
			if err != nil {
				return err
			}
			traceInv += col[j]
			e[j] = 0
		}
		gamma := float64(d) - lambda*traceInv
		var sse, wnorm float64
		for i, row := range xs {
			diff := yc[i] - mat.Dot(nw, row)
			sse += diff * diff
		}
		for _, v := range nw {
			wnorm += v * v
		}
		newLambda := (gamma + eps) / (wnorm + eps)
		newAlpha := (float64(n) - gamma + eps) / (sse + eps)
		delta := 0.0
		for j := range nw {
			delta += math.Abs(nw[j] - w[j])
		}
		w = nw
		converged := delta < r.Tol
		alpha, lambda = newAlpha, newLambda
		if converged {
			break
		}
	}
	// Undo standardization.
	r.w = make([]float64, d)
	r.b = ymean
	for j := range w {
		r.w[j] = w[j] / s.Std[j]
		r.b -= r.w[j] * s.Mean[j]
	}
	r.Alpha, r.Lambda = alpha, lambda
	return nil
}

// Predict implements Regressor.
func (r *BayesianRidge) Predict(x []float64) float64 { return mat.Dot(r.w, x) + r.b }

// SGD is a linear model trained by stochastic gradient descent on the
// squared loss.  Faithful to scikit-learn's SGDRegressor defaults, it does
// NOT standardize its inputs — on raw, badly scaled features it diverges
// or stalls, which is exactly the behaviour behind its last-place fidelity
// in the paper's Table 3.
type SGD struct {
	LR     float64 // initial learning rate (eta0)
	Epochs int
	seed   int64
	w      []float64
	b      float64
}

// NewSGD returns an SGD linear regressor.
func NewSGD(lr float64, epochs int, seed int64) *SGD {
	return &SGD{LR: lr, Epochs: epochs, seed: seed}
}

// Fit implements Regressor.
func (r *SGD) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	d := len(x[0])
	r.w = make([]float64, d)
	r.b = 0
	rng := rand.New(rand.NewSource(r.seed))
	t := 1.0
	for ep := 0; ep < r.Epochs; ep++ {
		for _, i := range rng.Perm(len(x)) {
			// inverse-scaling learning rate schedule (sklearn "invscaling").
			lr := r.LR / math.Sqrt(math.Sqrt(t))
			pred := mat.Dot(r.w, x[i]) + r.b
			g := pred - y[i]
			if g > 1e12 {
				g = 1e12 // keep the divergence finite so Predict stays numeric
			}
			if g < -1e12 {
				g = -1e12
			}
			for j, v := range x[i] {
				r.w[j] -= lr * g * v
			}
			r.b -= lr * g
			t++
		}
	}
	return nil
}

// Predict implements Regressor.
func (r *SGD) Predict(x []float64) float64 { return mat.Dot(r.w, x) + r.b }
