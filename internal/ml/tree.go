package ml

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// DecisionTree is a CART regression tree grown by greedy variance
// reduction.  MaxDepth 0 means unbounded (scikit-learn's default), which
// memorizes the training set — the 100% train / ~95% test fidelity
// signature in the paper's Table 3.
type DecisionTree struct {
	MaxDepth        int
	MinSamplesSplit int

	// MaxFeatures limits the features examined per split (0 = all);
	// sampled with rng when set — used by the ensemble methods.
	MaxFeatures int
	rng         *rand.Rand

	nodes []treeNode
}

type treeNode struct {
	feature int // -1 for leaves
	thresh  float64
	left    int32
	right   int32
	value   float64 // leaf prediction (weighted mean)
}

// NewDecisionTree returns a CART regression tree; maxDepth 0 = unbounded.
func NewDecisionTree(maxDepth, minSamplesSplit int) *DecisionTree {
	if minSamplesSplit < 2 {
		minSamplesSplit = 2
	}
	return &DecisionTree{MaxDepth: maxDepth, MinSamplesSplit: minSamplesSplit}
}

// Fit implements Regressor with uniform sample weights.
func (t *DecisionTree) Fit(x [][]float64, y []float64) error {
	return t.FitWeighted(x, y, nil)
}

// FitWeighted fits with per-sample weights (nil = uniform).
func (t *DecisionTree) FitWeighted(x [][]float64, y []float64, w []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	t.fitRanked(x, y, w, rankFeatures(x))
	return nil
}

// fitRanked fits on validated data whose feature ranks are already
// known: the ensembles rank their data once and share it across trees.
func (t *DecisionTree) fitRanked(x [][]float64, y, w []float64, r ranks) {
	if w == nil {
		w = make([]float64, len(y))
		for i := range w {
			w[i] = 1
		}
	}
	t.nodes = t.nodes[:0]
	s := newSplitScratch(r, len(x))
	idx := make([]int32, len(x))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.build(x, y, w, s, idx, 1)
}

// ranks holds per-feature value ranks of a sample set.  Every node orders
// its rows by each candidate feature with a stable sort, and a stable
// sort's output permutation is unique, so sorting by rank reproduces the
// value sort row for row without comparing floats again.  Two rows share
// a rank exactly when their values compare == (so ±0 do); NaN is
// rejected by checkXY.
type ranks struct {
	of [][]int32 // of[f][row]: rank of x[row][f] in [0, n[f])
	n  []int     // rank bound of feature f
}

// rankFeatures computes the dense ranks of every feature of x.
func rankFeatures(x [][]float64) ranks {
	n, d := len(x), len(x[0])
	r := ranks{of: make([][]int32, d), n: make([]int, d)}
	col := make([]float64, n)
	flat := make([]int32, n*d)
	for f := range r.of {
		for i, row := range x {
			col[i] = row[f]
		}
		slices.Sort(col)
		vals := slices.Compact(col) // == merges ±0 into one value
		rf := flat[f*n : (f+1)*n]
		for i, row := range x {
			k, _ := slices.BinarySearch(vals, row[f])
			rf[i] = int32(k)
		}
		r.of[f], r.n[f] = rf, len(vals)
	}
	return r
}

// subset returns the ranks of the sample whose row i is row src[i] of
// the ranked set — a bootstrap draw.  Order and ties carry over; the
// ranks are no longer dense, which the sorts do not need.
func (r ranks) subset(src []int32) ranks {
	n, d := len(src), len(r.of)
	s := ranks{of: make([][]int32, d), n: r.n}
	flat := make([]int32, n*d)
	for f, rf := range r.of {
		sf := flat[f*n : (f+1)*n]
		for i, j := range src {
			sf[i] = rf[j]
		}
		s.of[f] = sf
	}
	return s
}

// splitScratch is one fit's split-search state, reused by every node.
type splitScratch struct {
	ranks
	cur      []int32 // the feature being scanned, rows in rank order
	best     []int32 // the best split's feature, rows in rank order
	tmp      []int32 // radix-sort pass buffer
	count    []int32 // counting-sort buckets
	features []int
}

func newSplitScratch(r ranks, n int) *splitScratch {
	return &splitScratch{
		ranks:    r,
		cur:      make([]int32, n),
		best:     make([]int32, n),
		tmp:      make([]int32, n),
		count:    make([]int32, max(slices.Max(r.n), 256)),
		features: make([]int, len(r.of)),
	}
}

// sortByRank writes idx to dst stably ordered by rank, choosing by the
// node size m and the rank bound: an insertion sort for small nodes of a
// many-valued feature, one counting-sort pass when the bound is within a
// few m, and otherwise an LSD radix sort over 8-bit rank digits, whose
// passes are stable counting sorts.
func (s *splitScratch) sortByRank(dst, idx []int32, rank []int32, nranks int) {
	m := len(idx)
	switch {
	case m <= 32 && nranks > 2*m:
		copy(dst, idx)
		for i := 1; i < m; i++ {
			v := dst[i]
			rv := rank[v]
			j := i
			for ; j > 0 && rank[dst[j-1]] > rv; j-- {
				dst[j] = dst[j-1]
			}
			dst[j] = v
		}
	case nranks <= 4*m:
		countingPass(dst, idx, rank, 0, math.MaxUint32, s.count[:nranks])
	default:
		// Passes alternate between dst and tmp so the last lands in dst.
		passes := (bits.Len32(uint32(nranks-1)) + 7) / 8
		out, spare := dst, s.tmp[:m]
		if passes%2 == 0 {
			out, spare = spare, out
		}
		src := idx
		for p := 0; p < passes; p++ {
			countingPass(out, src, rank, uint(8*p), 0xff, s.count[:256])
			src, out, spare = out, spare, out
		}
	}
}

// countingPass stably sorts src into dst by the digit (rank>>shift)&mask;
// count has one entry per digit value.
func countingPass(dst, src []int32, rank []int32, shift uint, mask uint32, count []int32) {
	clear(count)
	for _, i := range src {
		count[uint32(rank[i])>>shift&mask]++
	}
	// Exclusive prefix sums, the running total kept in a register.
	sum := int32(0)
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for _, i := range src {
		d := uint32(rank[i]) >> shift & mask
		dst[count[d]] = i
		count[d]++
	}
}

// build grows the subtree over idx and returns its node id.  On return
// idx holds its rows reordered: the left child's rows first, each side in
// the order it was grown from.
func (t *DecisionTree) build(x [][]float64, y, w []float64, s *splitScratch, idx []int32, depth int) int32 {
	var sw, swy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * y[i]
	}
	mean := swy / sw
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: -1, value: mean})

	if len(idx) < t.MinSamplesSplit || (t.MaxDepth > 0 && depth > t.MaxDepth) {
		return id
	}
	// Parent impurity (weighted SSE around the mean).
	var sse float64
	for _, i := range idx {
		d := y[i] - mean
		sse += w[i] * d * d
	}
	if sse <= 1e-12 {
		return id
	}

	d := len(x[0])
	features := s.features[:d]
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < d && t.rng != nil {
		t.rng.Shuffle(d, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}

	m := len(idx)
	bestGain := 1e-12
	bestFeat, bestPos := -1, -1
	for _, f := range features {
		rank := s.of[f]
		order := s.cur[:m]
		s.sortByRank(order, idx, rank, s.n[f])
		// Prefix sums over the sorted order.
		var lw, lwy float64
		rw, rwy := sw, swy
		improved := false
		for pos := 0; pos < m-1; pos++ {
			i := order[pos]
			lw += w[i]
			lwy += w[i] * y[i]
			rw -= w[i]
			rwy -= w[i] * y[i]
			if rank[i] == rank[order[pos+1]] {
				continue // cannot split between equal values
			}
			// Gain = parent SSE − child SSEs; computable from sums since
			// SSE = Σwy² − (Σwy)²/Σw and Σwy² cancels.
			gain := lwy*lwy/lw + rwy*rwy/rw - swy*swy/sw
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestPos = pos
				improved = true
			}
		}
		if improved {
			s.cur, s.best = s.best, s.cur
		}
	}
	if bestFeat < 0 {
		return id
	}
	order := s.best[:m]
	thresh := (x[order[bestPos]][bestFeat] + x[order[bestPos+1]][bestFeat]) / 2
	copy(idx, order)
	l := t.build(x, y, w, s, idx[:bestPos+1], depth+1)
	r := t.build(x, y, w, s, idx[bestPos+1:], depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].thresh = thresh
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// Predict implements Regressor.
func (t *DecisionTree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	id := int32(0)
	for {
		n := t.nodes[id]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			id = n.left
		} else {
			id = n.right
		}
	}
}

// RandomForest is a bagging ensemble of unpruned CART trees (100 trees in
// the paper) averaging their predictions.
type RandomForest struct {
	NTrees int
	seed   int64
	trees  []*DecisionTree
}

// NewRandomForest returns a forest with n bootstrap-trained trees.
func NewRandomForest(n int, seed int64) *RandomForest {
	return &RandomForest{NTrees: n, seed: seed}
}

// Fit implements Regressor; see forest.go for the parallel implementation
// (bit-identical to sequential fitting at any parallelism).

// Predict implements Regressor.
func (f *RandomForest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}
