package ml

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"autoax/internal/par"
)

// rngPool recycles the per-tree random sources of RandomForest.Fit: a
// math/rand source is ~5 KB, and reseeding one yields the same stream as
// a fresh source with that seed.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Fit implements Regressor: it bootstrap-trains NTrees CART trees across
// GOMAXPROCS goroutines.  Every tree's bootstrap sample and private seed
// are pre-derived from the root RNG in tree order, and the features are
// ranked once for all trees, so the result is bit-identical to the
// historical sequential fit at any parallelism.  A panic while fitting a
// tree is returned as an error.
func (f *RandomForest) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(f.seed))
	n := len(x)
	type boot struct {
		src  []int32 // row i of the sample is row src[i] of x
		seed int64
	}
	boots := make([]boot, f.NTrees)
	for k := range boots {
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(rng.Intn(n))
		}
		boots[k] = boot{src, rng.Int63()}
	}
	r := rankFeatures(x)
	trees := make([]*DecisionTree, f.NTrees)
	errs := par.Each(context.TODO(), len(boots), func(k int) error {
		b := boots[k]
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i, j := range b.src {
			bx[i], by[i] = x[j], y[j]
		}
		tr := NewDecisionTree(0, 2)
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(b.seed)
		tr.rng = rng
		tr.fitRanked(bx, by, nil, r.subset(b.src))
		tr.rng = nil // the fitted tree draws no more
		rngPool.Put(rng)
		trees[k] = tr
		return nil
	})
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("ml: random forest tree %d: %w", k, err)
		}
	}
	f.trees = trees
	return nil
}
