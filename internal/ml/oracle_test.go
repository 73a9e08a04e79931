package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Frozen oracles: the split search and the MLP trainer exactly as they
// stood before the rank-sort and allocation-free rewrites.  The fast
// paths must reproduce them bit for bit; nothing outside this file may
// call them.

// oracleTreeFit fits t with the historical per-node stable value sort.
func oracleTreeFit(t *DecisionTree, x [][]float64, y, w []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	if w == nil {
		w = make([]float64, len(y))
		for i := range w {
			w[i] = 1
		}
	}
	t.nodes = t.nodes[:0]
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	oracleBuild(t, x, y, w, idx, 1)
	return nil
}

func oracleBuild(t *DecisionTree, x [][]float64, y, w []float64, idx []int, depth int) int32 {
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
	var sse float64
	for _, i := range idx {
		d := y[i] - mean
		sse += w[i] * d * d
	}
	if sse <= 1e-12 {
		return id
	}

	d := len(x[0])
	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < d && t.rng != nil {
		t.rng.Shuffle(d, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}

	bestGain := 1e-12
	bestFeat, bestPos := -1, -1
	var bestOrder []int
	vals := make([]float64, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vals[k] = x[i][f]
		}
		order := argsortAsc(vals)
		var lw, lwy float64
		rw, rwy := sw, swy
		for pos := 0; pos < len(order)-1; pos++ {
			i := idx[order[pos]]
			lw += w[i]
			lwy += w[i] * y[i]
			rw -= w[i]
			rwy -= w[i] * y[i]
			if vals[order[pos]] == vals[order[pos+1]] {
				continue
			}
			gain := lwy*lwy/lw + rwy*rwy/rw - swy*swy/sw
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestPos = pos
				bestOrder = append(bestOrder[:0], order...)
			}
		}
	}
	if bestFeat < 0 {
		return id
	}
	thresh := (x[idx[bestOrder[bestPos]]][bestFeat] + x[idx[bestOrder[bestPos+1]]][bestFeat]) / 2
	left := make([]int, 0, bestPos+1)
	right := make([]int, 0, len(idx)-bestPos-1)
	for pos, o := range bestOrder {
		if pos <= bestPos {
			left = append(left, idx[o])
		} else {
			right = append(right, idx[o])
		}
	}
	l := oracleBuild(t, x, y, w, left, depth+1)
	r := oracleBuild(t, x, y, w, right, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].thresh = thresh
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// oracleMLPFit trains m with the historical per-sample-allocating loop.
func oracleMLPFit(m *MLP, x [][]float64, y []float64) error {
	if err := checkXY(x, y); err != nil {
		return err
	}
	m.scaler = FitScaler(x)
	xs := m.scaler.Transform(x)
	d := len(xs[0])
	m.dims = append(append([]int{d}, m.Hidden...), 1)
	rng := rand.New(rand.NewSource(m.seed))

	layers := len(m.dims) - 1
	m.weights = make([][]float64, layers)
	for l := 0; l < layers; l++ {
		in, out := m.dims[l], m.dims[l+1]
		w := make([]float64, (in+1)*out)
		limit := math.Sqrt(6.0 / float64(in+out))
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.weights[l] = w
	}
	mom := make([][]float64, layers)
	vel := make([][]float64, layers)
	grad := make([][]float64, layers)
	for l := range mom {
		mom[l] = make([]float64, len(m.weights[l]))
		vel[l] = make([]float64, len(m.weights[l]))
		grad[l] = make([]float64, len(m.weights[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	n := len(xs)
	acts := make([][]float64, layers+1)
	deltas := make([][]float64, layers+1)
	for ep := 0; ep < m.Epochs; ep++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += m.Batch {
			end := start + m.Batch
			if end > n {
				end = n
			}
			for l := range grad {
				for i := range grad[l] {
					grad[l][i] = 0
				}
			}
			for _, pi := range perm[start:end] {
				acts[0] = xs[pi]
				for l := 0; l < layers; l++ {
					in, out := m.dims[l], m.dims[l+1]
					a := make([]float64, out)
					w := m.weights[l]
					for o := 0; o < out; o++ {
						s := w[in*out+o]
						for i2 := 0; i2 < in; i2++ {
							s += w[i2*out+o] * acts[l][i2]
						}
						if l < layers-1 && s < 0 {
							s = 0
						}
						a[o] = s
					}
					acts[l+1] = a
				}
				deltas[layers] = []float64{acts[layers][0] - y[pi]}
				for l := layers - 1; l >= 0; l-- {
					in, out := m.dims[l], m.dims[l+1]
					w := m.weights[l]
					g := grad[l]
					dl := deltas[l+1]
					for o := 0; o < out; o++ {
						do := dl[o]
						if do == 0 {
							continue
						}
						for i2 := 0; i2 < in; i2++ {
							g[i2*out+o] += do * acts[l][i2]
						}
						g[in*out+o] += do
					}
					if l > 0 {
						prev := make([]float64, in)
						for i2 := 0; i2 < in; i2++ {
							if acts[l][i2] <= 0 {
								continue
							}
							s := 0.0
							for o := 0; o < out; o++ {
								s += w[i2*out+o] * dl[o]
							}
							prev[i2] = s
						}
						deltas[l] = prev
					}
				}
			}
			step++
			bs := float64(end - start)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l := range m.weights {
				w, g, mo, ve := m.weights[l], grad[l], mom[l], vel[l]
				for i := range w {
					gi := g[i] / bs
					mo[i] = beta1*mo[i] + (1-beta1)*gi
					ve[i] = beta2*ve[i] + (1-beta2)*gi*gi
					w[i] -= m.LR * (mo[i] / bc1) / (math.Sqrt(ve[i]/bc2) + eps)
				}
			}
		}
	}
	return nil
}

// oracleMLPPredict is the historical unit-by-unit MLP forward pass.
func oracleMLPPredict(m *MLP, q []float64) float64 {
	a := m.scaler.TransformRow(q)
	layers := len(m.dims) - 1
	for l := 0; l < layers; l++ {
		in, out := m.dims[l], m.dims[l+1]
		w := m.weights[l]
		next := make([]float64, out)
		for o := 0; o < out; o++ {
			s := w[in*out+o]
			for i := 0; i < in; i++ {
				s += w[i*out+o] * a[i]
			}
			if l < layers-1 && s < 0 {
				s = 0
			}
			next[o] = s
		}
		a = next
	}
	return a[0]
}

// treeCase is one generated tree-fitting problem; every field is a pure
// function of its seed.
type treeCase struct {
	x                  [][]float64
	y, w               []float64
	maxDepth, minSplit int
	maxFeatures        int
	rngSeed            int64 // MaxFeatures sampling stream; 0 = no rng
}

// genTreeCase grows a problem that stresses the split search: few
// distinct values per feature (heavy ties) or many (every sort path),
// ±0 and negative values,
// bootstrap-duplicated rows, optional sample weights, depth limits and
// MaxFeatures sampling.
func genTreeCase(seed int64) treeCase {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(120)
	if rng.Intn(10) == 0 { // enough distinct values for multi-pass radix sorts
		n = 260 + rng.Intn(640)
	}
	d := 1 + rng.Intn(6)
	levels := make([]int, d) // distinct values per feature; 0 = continuous
	for f := range levels {
		switch rng.Intn(4) {
		case 0:
			levels[f] = 1 + rng.Intn(3)
		case 1:
			levels[f] = 2 + rng.Intn(12)
		}
	}
	value := func(f int) float64 {
		if levels[f] == 0 {
			return rng.NormFloat64() * 10
		}
		v := float64(rng.Intn(levels[f])) - float64(levels[f]/2)
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	base := make([][]float64, n)
	for i := range base {
		row := make([]float64, d)
		for f := range row {
			row[f] = value(f)
		}
		base[i] = row
	}
	by := make([]float64, n)
	yLevels := rng.Intn(4) // 0 = continuous targets
	for i := range by {
		if yLevels > 0 {
			by[i] = float64(rng.Intn(yLevels + 1))
		} else {
			by[i] = base[i][0]*0.3 + rng.NormFloat64()
		}
	}
	c := treeCase{x: base, y: by}
	if rng.Intn(2) == 0 { // bootstrap: shared rows, duplicated targets
		c.x = make([][]float64, n)
		c.y = make([]float64, n)
		for i := range c.x {
			j := rng.Intn(n)
			c.x[i], c.y[i] = base[j], by[j]
		}
	}
	if rng.Intn(3) == 0 {
		c.w = make([]float64, n)
		for i := range c.w {
			c.w[i] = rng.Float64() + 0.01
		}
	}
	if rng.Intn(2) == 0 {
		c.maxDepth = 1 + rng.Intn(5)
	}
	c.minSplit = 2 + rng.Intn(3)
	if rng.Intn(2) == 0 && d > 1 {
		c.maxFeatures = 1 + rng.Intn(d)
		c.rngSeed = rng.Int63()
	}
	return c
}

func (c treeCase) newTree() *DecisionTree {
	t := NewDecisionTree(c.maxDepth, c.minSplit)
	t.MaxFeatures = c.maxFeatures
	if c.rngSeed != 0 {
		t.rng = rand.New(rand.NewSource(c.rngSeed))
	}
	return t
}

// sameTree reports the first node at which a and b differ.
func sameTree(a, b *DecisionTree) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("%d nodes, oracle %d", len(a.nodes), len(b.nodes))
	}
	for k, n := range a.nodes {
		o := b.nodes[k]
		if n.feature != o.feature || n.left != o.left || n.right != o.right ||
			math.Float64bits(n.value) != math.Float64bits(o.value) ||
			math.Float64bits(n.thresh) != math.Float64bits(o.thresh) {
			return fmt.Errorf("node %d = %+v, oracle %+v", k, n, o)
		}
	}
	return nil
}

// TestTreeOracle diffs the rank-sorted split search against the frozen
// value-sort oracle on generated problems, node for node and bit for bit.
func TestTreeOracle(t *testing.T) {
	for seed := int64(1); seed <= 2500; seed++ {
		c := genTreeCase(seed)
		got, want := c.newTree(), c.newTree()
		if err := got.FitWeighted(c.x, c.y, c.w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := oracleTreeFit(want, c.x, c.y, c.w); err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if err := sameTree(got, want); err != nil {
			t.Fatalf("repro: go test ./internal/ml -run TestTreeOracle (genTreeCase(%d)): %v", seed, err)
		}
	}
}

// TestForestOracle fits whole forests both ways: bootstrap samples with
// MaxFeatures off (the forest default) must match tree for tree.
func TestForestOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		x, y := forestProblem(60+int(seed)*7, 1+int(seed)%5, seed)
		f := NewRandomForest(8, seed)
		if err := f.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		ref := NewRandomForest(8, seed)
		rng := rand.New(rand.NewSource(ref.seed))
		n := len(x)
		for k := 0; k < ref.NTrees; k++ {
			bx := make([][]float64, n)
			by := make([]float64, n)
			for i := range bx {
				j := rng.Intn(n)
				bx[i], by[i] = x[j], y[j]
			}
			tr := NewDecisionTree(0, 2)
			tr.rng = rand.New(rand.NewSource(rng.Int63()))
			if err := oracleTreeFit(tr, bx, by, nil); err != nil {
				t.Fatal(err)
			}
			if err := sameTree(f.trees[k], tr); err != nil {
				t.Fatalf("repro: go test ./internal/ml -run TestForestOracle (seed %d, tree %d): %v", seed, k, err)
			}
		}
	}
}

// genMLPCase builds a small generated regression problem and an MLP with
// one or two hidden layers.
func genMLPCase(seed int64) (*MLP, [][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(70)
	d := 1 + rng.Intn(6)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for f := range row {
			if rng.Intn(5) == 0 {
				row[f] = float64(rng.Intn(3)) // ties and constant columns
			} else {
				row[f] = rng.NormFloat64() * 20
			}
		}
		x[i] = row
		y[i] = row[0]*0.1 + rng.NormFloat64()
	}
	hidden := []int{1 + rng.Intn(110)}
	if rng.Intn(2) == 0 {
		hidden = append(hidden, 1+rng.Intn(16))
	}
	m := NewMLP(hidden, 1+rng.Intn(12), rng.Int63())
	m.Batch = 1 + rng.Intn(40)
	return m, x, y
}

// TestMLPOracle diffs the allocation-free MLP trainer against the frozen
// oracle: every weight must match bit for bit.
func TestMLPOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		got, x, y := genMLPCase(seed)
		want, _, _ := genMLPCase(seed)
		if err := got.Fit(x, y); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := oracleMLPFit(want, x, y); err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for l := range want.weights {
			for i, v := range want.weights[l] {
				if math.Float64bits(got.weights[l][i]) != math.Float64bits(v) {
					t.Fatalf("repro: go test ./internal/ml -run TestMLPOracle (genMLPCase(%d)): layer %d weight %d = %v, oracle %v",
						seed, l, i, got.weights[l][i], v)
				}
			}
		}
		for i, row := range x {
			if p, q := got.Predict(row), oracleMLPPredict(want, row); math.Float64bits(p) != math.Float64bits(q) {
				t.Fatalf("repro: go test ./internal/ml -run TestMLPOracle (genMLPCase(%d)): row %d predicts %v, oracle %v",
					seed, i, p, q)
			}
		}
	}
}

// oracleAdaBoostFit is the historical AdaBoostR2.Fit over oracle trees.
func oracleAdaBoostFit(a *AdaBoostR2, x [][]float64, y []float64) error {
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
	errs := make([]float64, n)
	for m := 0; m < a.NEstimators; m++ {
		cum := make([]float64, n)
		s := 0.0
		for i, v := range w {
			s += v
			cum[i] = s
		}
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			r := rng.Float64() * s
			j := sort.SearchFloat64s(cum, r)
			if j >= n {
				j = n - 1
			}
			bx[i] = x[j]
			by[i] = y[j]
		}
		tr := NewDecisionTree(a.MaxDepth, 2)
		if err := oracleTreeFit(tr, bx, by, nil); err != nil {
			return err
		}
		maxErr := 0.0
		for i := range x {
			errs[i] = math.Abs(tr.Predict(x[i]) - y[i])
			if errs[i] > maxErr {
				maxErr = errs[i]
			}
		}
		if maxErr == 0 {
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

// oracleGradientBoostingFit is the historical GradientBoosting.Fit over
// oracle trees.
func oracleGradientBoostingFit(g *GradientBoosting, x [][]float64, y []float64) error {
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
	for m := 0; m < g.NStages; m++ {
		tr := NewDecisionTree(g.MaxDepth, 2)
		if err := oracleTreeFit(tr, x, resid, nil); err != nil {
			return err
		}
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

// sameForest reports the first tree at which two ensembles differ.
func sameForest(got, want []*DecisionTree) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d trees, oracle %d", len(got), len(want))
	}
	for k := range want {
		if err := sameTree(got[k], want[k]); err != nil {
			return fmt.Errorf("tree %d: %v", k, err)
		}
	}
	return nil
}

// TestBoostingOracle fits both boosting ensembles, which share one
// feature ranking across their trees, against the frozen loops over
// oracle trees on generated problems.
func TestBoostingOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c := genTreeCase(seed)
		ada, adaRef := NewAdaBoostR2(12, seed), NewAdaBoostR2(12, seed)
		if err := ada.Fit(c.x, c.y); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := oracleAdaBoostFit(adaRef, c.x, c.y); err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if err := sameForest(ada.trees, adaRef.trees); err != nil {
			t.Fatalf("repro: go test ./internal/ml -run TestBoostingOracle (AdaBoost, genTreeCase(%d)): %v", seed, err)
		}
		for k, v := range adaRef.weights {
			if math.Float64bits(ada.weights[k]) != math.Float64bits(v) {
				t.Fatalf("repro: go test ./internal/ml -run TestBoostingOracle (AdaBoost, genTreeCase(%d)): weight %d = %v, oracle %v",
					seed, k, ada.weights[k], v)
			}
		}
		gb, gbRef := NewGradientBoosting(15, 0.1, 3, seed), NewGradientBoosting(15, 0.1, 3, seed)
		if err := gb.Fit(c.x, c.y); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := oracleGradientBoostingFit(gbRef, c.x, c.y); err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		if err := sameForest(gb.trees, gbRef.trees); err != nil {
			t.Fatalf("repro: go test ./internal/ml -run TestBoostingOracle (GradientBoosting, genTreeCase(%d)): %v", seed, err)
		}
	}
}
