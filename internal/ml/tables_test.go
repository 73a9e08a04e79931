package ml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// tableCase is one generated leaf-table problem: a feature layout (the
// group of each feature and its value under each of the group's
// choices) and a forest over those features.
type tableCase struct {
	group  []int
	values [][]float64
	rf     *RandomForest
}

// features returns the feature vector choice selects.
func (c tableCase) features(choice []int) []float64 {
	x := make([]float64, len(c.group))
	for f, g := range c.group {
		x[f] = c.values[f][choice[g]]
	}
	return x
}

func (c tableCase) randomChoice(rng *rand.Rand, nGroups int) []int {
	choice := make([]int, nGroups)
	for g := range choice {
		choice[g] = rng.Intn(len(c.values[c.firstFeature(g)]))
	}
	return choice
}

func (c tableCase) firstFeature(g int) int {
	for f, h := range c.group {
		if h == g {
			return f
		}
	}
	panic("group without features")
}

// tableGrid holds the values features and thresholds draw from: exact
// repeats make a feature equal to a split threshold common, and both
// zeros appear.
var tableGrid = []float64{-2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 1, 2.5, 7, 10}

// genTableCase builds a random layout and forest.  Seeds ≡ 0 (mod 3)
// give group 0 more than 64 choices, seeds ≡ 0 (mod 4) fit a real forest
// instead of growing random trees, and seeds ≡ 0 (mod 5) add a tree with
// 256 leaves (four mask words).
func genTableCase(seed int64) (tableCase, int) {
	rng := rand.New(rand.NewSource(seed))
	nGroups := 1 + rng.Intn(5)
	choices := make([]int, nGroups)
	for g := range choices {
		choices[g] = 1 + rng.Intn(12)
	}
	if seed%3 == 0 {
		choices[0] = 65 + rng.Intn(40)
	}
	var c tableCase
	for g := range choices {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			c.group = append(c.group, g)
		}
	}
	rng.Shuffle(len(c.group), func(i, j int) { c.group[i], c.group[j] = c.group[j], c.group[i] })
	for _, g := range c.group {
		v := make([]float64, choices[g])
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = rng.NormFloat64() * 5
			} else {
				v[i] = tableGrid[rng.Intn(len(tableGrid))]
			}
		}
		c.values = append(c.values, v)
	}

	if seed%4 == 0 {
		x := make([][]float64, 30+rng.Intn(80))
		y := make([]float64, len(x))
		for i := range x {
			x[i] = c.features(c.randomChoice(rng, nGroups))
			for _, v := range x[i] {
				y[i] += v * v
			}
			y[i] += rng.Float64()
		}
		c.rf = NewRandomForest(1+rng.Intn(12), seed)
		if err := c.rf.Fit(x, y); err != nil {
			panic(err)
		}
		return c, nGroups
	}

	c.rf = NewRandomForest(0, seed)
	for k := 1 + rng.Intn(8); k > 0; k-- {
		tr := NewDecisionTree(0, 2)
		switch rng.Intn(8) {
		case 0: // unfitted: predicts 0
		case 1: // a single leaf
			tr.nodes = []treeNode{{feature: -1, value: rng.NormFloat64()}}
		default:
			// Split on a random subset of the features, so some groups
			// go untested.
			feats := rng.Perm(len(c.group))[:1+rng.Intn(len(c.group))]
			growTableTree(rng, tr, c, feats, 1+rng.Intn(9), false)
		}
		c.rf.trees = append(c.rf.trees, tr)
	}
	if seed%5 == 0 {
		tr := NewDecisionTree(0, 2)
		growTableTree(rng, tr, c, rng.Perm(len(c.group)), 8, true)
		c.rf.trees = append(c.rf.trees, tr)
	}
	c.rf.NTrees = len(c.rf.trees)
	return c, nGroups
}

// growTableTree appends a random subtree in DecisionTree's preorder
// layout and returns its root.  full grows every path to depth.
func growTableTree(rng *rand.Rand, tr *DecisionTree, c tableCase, feats []int, depth int, full bool) int32 {
	id := int32(len(tr.nodes))
	tr.nodes = append(tr.nodes, treeNode{feature: -1, value: rng.NormFloat64()})
	if depth == 0 || (!full && rng.Intn(4) == 0) {
		return id
	}
	f := feats[rng.Intn(len(feats))]
	var thresh float64
	switch v := c.values[f]; rng.Intn(4) {
	case 0, 1: // one of the feature's own values
		thresh = v[rng.Intn(len(v))]
	case 2: // a midpoint, as Fit makes
		thresh = (v[rng.Intn(len(v))] + v[rng.Intn(len(v))]) / 2
	default:
		thresh = tableGrid[rng.Intn(len(tableGrid))]
	}
	l := growTableTree(rng, tr, c, feats, depth-1, full)
	r := growTableTree(rng, tr, c, feats, depth-1, full)
	tr.nodes[id] = treeNode{feature: f, thresh: thresh, left: l, right: r}
	return id
}

// checkScorer runs a seeded Reset/Move/Accept/Reject sequence and
// compares every score with RandomForest.Predict bit for bit.
func checkScorer(c tableCase, lt *LeafTables, nGroups int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s := lt.NewScorer()
	same := func(what string, got float64, choice []int) error {
		if want := c.rf.Predict(c.features(choice)); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s at %v: scorer %v, Predict %v", what, choice, got, want)
		}
		return nil
	}
	choice := c.randomChoice(rng, nGroups)
	if err := same("Reset", s.Reset(choice), choice); err != nil {
		return err
	}
	for step := 0; step < 300; step++ {
		if rng.Intn(25) == 0 {
			choice = c.randomChoice(rng, nGroups)
			if err := same(fmt.Sprintf("step %d: Reset", step), s.Reset(choice), choice); err != nil {
				return err
			}
			continue
		}
		g := rng.Intn(nGroups)
		old := choice[g]
		choice[g] = rng.Intn(len(c.values[c.firstFeature(g)]))
		if err := same(fmt.Sprintf("step %d: Move(%d, %d)", step, g, choice[g]), s.Move(g, choice[g]), choice); err != nil {
			return err
		}
		if rng.Intn(2) == 0 {
			s.Accept()
			continue
		}
		s.Reject()
		choice[g] = old
		// A Move that keeps a choice re-scores the restored point.
		h := rng.Intn(nGroups)
		if err := same(fmt.Sprintf("step %d: after Reject", step), s.Move(h, choice[h]), choice); err != nil {
			return err
		}
		s.Reject()
	}
	return nil
}

// TestLeafTablesOracle pins the table scorer to RandomForest.Predict, bit
// for bit, over generated layouts, forests and move sequences: random
// and fitted trees, unfitted and single-leaf trees, trees that leave
// groups untested, trees of more than 128 leaves, groups of more than 64
// choices, and feature values equal to split thresholds, zeros of both
// signs among them.  Two scorers run each sequence at once over the
// shared tables.
func TestLeafTablesOracle(t *testing.T) {
	var bigTree, wideGroup, untested, singleLeaf, onThreshold bool
	for seed := int64(1); seed <= 300; seed++ {
		c, nGroups := genTableCase(seed)
		lt, err := c.rf.LeafTables(c.group, c.values)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tr := range lt.trees {
			bigTree = bigTree || tr.width > 2
			untested = untested || (len(tr.terms) > 0 && len(tr.terms) < nGroups)
			singleLeaf = singleLeaf || len(tr.terms) == 0
		}
		wideGroup = wideGroup || lt.choices[0] > 64
		for _, tr := range c.rf.trees {
			for _, n := range tr.nodes {
				for _, v := range c.values[max(n.feature, 0)] {
					onThreshold = onThreshold || (n.feature >= 0 && v == n.thresh)
				}
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = checkScorer(c, lt, nGroups, seed*2+int64(i))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d, scorer %d: %v", seed, i, err)
			}
		}
	}
	if !bigTree || !wideGroup || !untested || !singleLeaf || !onThreshold {
		t.Fatalf("generator missed a case: >128 leaves %v, >64 choices %v, untested group %v, single leaf %v, value on threshold %v",
			bigTree, wideGroup, untested, singleLeaf, onThreshold)
	}
}

// fittedTableCase fits a forest of trees on samples configurations of
// a layout of nGroups groups, perGroup features each, every feature
// taking choices values on a coarse grid, so values equal to split
// thresholds are common.  It returns the case and the training
// configurations.
func fittedTableCase(seed int64, nGroups, perGroup, choices, samples, trees int) (tableCase, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	var c tableCase
	for g := 0; g < nGroups; g++ {
		for k := 0; k < perGroup; k++ {
			v := make([]float64, choices)
			for i := range v {
				v[i] = float64(rng.Intn(40)) * 2.5
			}
			c.group = append(c.group, g)
			c.values = append(c.values, v)
		}
	}
	train := make([][]int, samples)
	x := make([][]float64, samples)
	y := make([]float64, samples)
	for i := range x {
		train[i] = c.randomChoice(rng, nGroups)
		x[i] = c.features(train[i])
		s := 0.0
		for _, v := range x[i] {
			s += v
		}
		y[i] = 1 / (1 + s/100)
	}
	c.rf = NewRandomForest(trees, seed)
	if err := c.rf.Fit(x, y); err != nil {
		panic(err)
	}
	return c, train
}

// checkClimbPattern drives a scorer the way the hill climb does and
// compares every score with RandomForest.Predict bit for bit: runs of 50
// Moves from one parent, each accepted with probability 1/50 and
// otherwise rejected, bursts of Moves of one group, Moves to the current
// choice, a Move of the same group and one of another group right after
// every Accept, and a Reset between runs.  It returns the number of
// Accepts made.
func checkClimbPattern(c tableCase, lt *LeafTables, nGroups int, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	s := lt.NewScorer()
	accepts := 0
	var choice []int
	// move scores choice with group g moved to v, then rejects the Move
	// unless accept is set.
	move := func(what string, g, v int, accept bool) error {
		old := choice[g]
		choice[g] = v
		got := s.Move(g, v)
		if want := c.rf.Predict(c.features(choice)); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s: Move(%d, %d) at %v: scorer %v, Predict %v", what, g, v, choice, got, want)
		}
		if accept {
			s.Accept()
			accepts++
			return nil
		}
		s.Reject()
		choice[g] = old
		return nil
	}
	for run := 0; run < 8; run++ {
		choice = c.randomChoice(rng, nGroups)
		got, want := s.Reset(choice), c.rf.Predict(c.features(choice))
		if math.Float64bits(got) != math.Float64bits(want) {
			return accepts, fmt.Errorf("run %d: Reset at %v: scorer %v, Predict %v", run, choice, got, want)
		}
		for step := 0; step < 50; step++ {
			what := fmt.Sprintf("run %d, step %d", run, step)
			g := rng.Intn(nGroups)
			burst := 1
			if rng.Intn(4) == 0 {
				burst = 2 + rng.Intn(4)
			}
			for ; burst > 0; burst-- {
				v := rng.Intn(len(c.values[c.firstFeature(g)]))
				if rng.Intn(10) == 0 {
					v = choice[g]
				}
				accept := rng.Intn(50) == 0
				if err := move(what, g, v, accept); err != nil {
					return accepts, err
				}
				if !accept {
					continue
				}
				h := g
				if nGroups > 1 {
					h = (g + 1 + rng.Intn(nGroups-1)) % nGroups
				}
				for _, k := range []int{g, h} {
					if err := move(what+" after Accept", k, rng.Intn(len(c.values[c.firstFeature(k)])), false); err != nil {
						return accepts, err
					}
				}
			}
		}
	}
	return accepts, nil
}

// TestLeafTablesClimbPattern pins the table scorer to
// RandomForest.Predict, bit for bit, under the hill climb's access
// pattern (see checkClimbPattern): over the generated layouts and
// forests of TestLeafTablesOracle, and over fitted forests shaped like
// the Sobel models, 100 trees of one to three mask words over five
// groups.
func TestLeafTablesClimbPattern(t *testing.T) {
	type namedCase struct {
		name    string
		c       tableCase
		nGroups int
	}
	var cases []namedCase
	for seed := int64(1); seed <= 150; seed++ {
		c, nGroups := genTableCase(seed)
		cases = append(cases, namedCase{fmt.Sprintf("generated seed %d", seed), c, nGroups})
	}
	for seed := int64(1); seed <= 3; seed++ {
		c, _ := fittedTableCase(seed+200, 5, 3, 8+4*int(seed), 200, 100)
		cases = append(cases, namedCase{fmt.Sprintf("fitted seed %d", seed), c, 5})
	}
	accepts, wide := 0, false
	for i, nc := range cases {
		lt, err := nc.c.rf.LeafTables(nc.c.group, nc.c.values)
		if err != nil {
			t.Fatalf("%s: %v", nc.name, err)
		}
		for _, tr := range lt.trees {
			wide = wide || (tr.width == 2 && len(tr.terms) == 5)
		}
		n, err := checkClimbPattern(nc.c, lt, nc.nGroups, int64(i))
		if err != nil {
			t.Fatalf("%s: %v", nc.name, err)
		}
		accepts += n
	}
	if accepts < 100 || !wide {
		t.Fatalf("sequences made %d Accepts (want ≥ 100), two-word trees testing five groups %v", accepts, wide)
	}
}

// TestIncrementalPredictorMatchesPredict drives seeded Reset/Move/
// Accept/Reject sequences on fitted forests, the hill climb's use of the
// table scorer, and demands every score equal RandomForest.Predict bit
// for bit, including after a Reject rolls the state back.  (It keeps
// the name of the incremental predictor the tables replaced.)
func TestIncrementalPredictorMatchesPredict(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		nGroups := 1 + int(trial)%4
		c, _ := fittedTableCase(trial+100, nGroups, 1+int(trial)%3, 5+int(trial)*3, 80, 30)
		lt, err := c.rf.LeafTables(c.group, c.values)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := checkScorer(c, lt, nGroups, trial*7); err != nil {
			t.Fatalf("trial %d (seed %d): %v", trial, trial*7, err)
		}
	}
}

// TestIncrementalPredictorZeroAllocs pins the climb's inner step: Move
// with Reject, Move with Accept and Reset do not allocate once warm.
func TestIncrementalPredictorZeroAllocs(t *testing.T) {
	c, nGroups := genTableCase(20)
	lt, err := c.rf.LeafTables(c.group, c.values)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s := lt.NewScorer()
	choice := c.randomChoice(rng, nGroups)
	s.Reset(choice)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		g := i % nGroups
		s.Move(g, i%len(c.values[c.firstFeature(g)]))
		if i%3 == 0 {
			s.Accept()
		} else {
			s.Reject()
		}
		if i%50 == 0 {
			s.Reset(choice)
		}
	})
	if allocs != 0 {
		t.Fatalf("scorer allocated %.1f times per run, want 0", allocs)
	}
}

// TestLeafTablesRejectFeatureOutsideLayout: a forest that tests a
// feature the layout does not have fails the build, as Predict fails on
// a feature vector too short for it.
func TestLeafTablesRejectFeatureOutsideLayout(t *testing.T) {
	rf := NewRandomForest(1, 1)
	rf.trees = []*DecisionTree{{nodes: []treeNode{
		{feature: 3, thresh: 1, left: 1, right: 2},
		{feature: -1, value: 1},
		{feature: -1, value: 2},
	}}}
	group := []int{0, 1, 2}
	values := [][]float64{{0, 1}, {0, 1}, {0, 1}}
	_, err := rf.LeafTables(group, values)
	if err == nil || !strings.Contains(err.Error(), "tests feature 3, the layout has 3 features") {
		t.Fatalf("err = %v, want the out-of-layout feature reported", err)
	}
	if _, err := rf.LeafTables(append(group, 0), append(values, []float64{5, 6})); err != nil {
		t.Fatalf("with the feature in the layout: %v", err)
	}
}
