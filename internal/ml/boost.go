package ml

import (
	"math"
	"math/rand"
	"sort"
)

// AdaBoostR2 is the Drucker AdaBoost.R2 regression ensemble over shallow
// CART trees (scikit-learn default: 50 estimators of depth 3, linear
// loss), predicting with the weighted median of the estimators.
type AdaBoostR2 struct {
	NEstimators int
	MaxDepth    int
	seed        int64

	trees   []*DecisionTree
	weights []float64 // log(1/β) per estimator
}

// NewAdaBoostR2 returns an AdaBoost.R2 ensemble.
func NewAdaBoostR2(n int, seed int64) *AdaBoostR2 {
	return &AdaBoostR2{NEstimators: n, MaxDepth: 3, seed: seed}
}

// Fit implements Regressor.
func (a *AdaBoostR2) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	n := len(x)
	rng := rand.New(rand.NewSource(a.seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(n)
	}
	a.trees = a.trees[:0]
	a.weights = a.weights[:0]
	r := rankFeatures(x)
	errs := make([]float64, n)
	for m := 0; m < a.NEstimators; m++ {
		// Weighted bootstrap sample.
		cum := make([]float64, n)
		s := 0.0
		for i, v := range w {
			s += v
			cum[i] = s
		}
		src := make([]int32, n)
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := sort.SearchFloat64s(cum, rng.Float64()*s)
			if j >= n {
				j = n - 1
			}
			src[i] = int32(j)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tr := NewDecisionTree(a.MaxDepth, 2)
		tr.fitRanked(bx, by, nil, r.subset(src))
		// Linear loss normalized by the max error.
		maxErr := 0.0
		for i := range x {
			errs[i] = math.Abs(tr.Predict(x[i]) - y[i])
			if errs[i] > maxErr {
				maxErr = errs[i]
			}
		}
		if maxErr == 0 {
			// Perfect fit: keep it with a large weight and stop.
			a.trees = append(a.trees, tr)
			a.weights = append(a.weights, math.Log(1e9))
			break
		}
		var lbar float64
		for i := range errs {
			lbar += w[i] * errs[i] / maxErr
		}
		if lbar >= 0.5 {
			if len(a.trees) == 0 {
				a.trees = append(a.trees, tr)
				a.weights = append(a.weights, 1)
			}
			break
		}
		beta := lbar / (1 - lbar)
		a.trees = append(a.trees, tr)
		a.weights = append(a.weights, math.Log(1/beta))
		// Reweight: low-error samples are de-emphasized.
		var sum float64
		for i := range w {
			w[i] *= math.Pow(beta, 1-errs[i]/maxErr)
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return nil
}

// Predict implements Regressor: weighted median of estimator outputs.
func (a *AdaBoostR2) Predict(x []float64) float64 {
	k := len(a.trees)
	if k == 0 {
		return 0
	}
	preds := make([]float64, k)
	for i, t := range a.trees {
		preds[i] = t.Predict(x)
	}
	order := argsortAsc(preds)
	var total float64
	for _, w := range a.weights {
		total += w
	}
	var acc float64
	for _, o := range order {
		acc += a.weights[o]
		if acc >= total/2 {
			return preds[o]
		}
	}
	return preds[order[k-1]]
}

// GradientBoosting is least-squares gradient tree boosting: NStages
// shallow trees each fitting the current residual, scaled by the learning
// rate (scikit-learn defaults: 100 stages, lr 0.1, depth 3).
type GradientBoosting struct {
	NStages  int
	LR       float64
	MaxDepth int
	seed     int64

	init  float64
	trees []*DecisionTree
}

// NewGradientBoosting returns a gradient-boosting regressor.
func NewGradientBoosting(stages int, lr float64, depth int, seed int64) *GradientBoosting {
	return &GradientBoosting{NStages: stages, LR: lr, MaxDepth: depth, seed: seed}
}

// Fit implements Regressor.
func (g *GradientBoosting) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	n := len(x)
	g.init = 0
	for _, v := range y {
		g.init += v
	}
	g.init /= float64(n)
	resid := make([]float64, n)
	for i := range y {
		resid[i] = y[i] - g.init
	}
	g.trees = g.trees[:0]
	r := rankFeatures(x) // every stage fits the same rows
	for m := 0; m < g.NStages; m++ {
		tr := NewDecisionTree(g.MaxDepth, 2)
		tr.fitRanked(x, resid, nil, r)
		g.trees = append(g.trees, tr)
		done := true
		for i := range resid {
			resid[i] -= g.LR * tr.Predict(x[i])
			if math.Abs(resid[i]) > 1e-12 {
				done = false
			}
		}
		if done {
			break
		}
	}
	return nil
}

// Predict implements Regressor.
func (g *GradientBoosting) Predict(x []float64) float64 {
	s := g.init
	for _, t := range g.trees {
		s += g.LR * t.Predict(x)
	}
	return s
}
