package ml

import (
	"fmt"
	"math/bits"
)

// LeafTables scores a fitted random forest on inputs whose features come
// in groups, each group taking one of a few known choices — a
// configuration picks one library circuit per operation, and every
// feature is a field of one operation's circuit.  For every (tree, group,
// choice) the tables hold the bit set of the tree's leaves whose path
// conditions on that group's features hold under that choice.  The leaf a
// tree reaches is then the one bit left in the AND of its groups' sets,
// so scoring walks no tree: QuickScorer's bit-vector traversal (Lucchese
// et al., SIGIR 2015), keyed by choice instead of by threshold.
//
// A TableScorer over the tables is bit-identical to RandomForest.Predict
// on the same features: each tree contributes the value of the leaf its
// walk reaches, summed in tree order and divided once.  The tables are
// immutable and safe for concurrent use.
type LeafTables struct {
	// words holds one block per group; row c of group g's block is
	// choice c's masks for every tree that tests g, in tree order, each
	// tree's mask one or more 64-bit words wide.
	words   []uint64
	values  []float64 // leaf values, tree by tree, leaves in preorder
	trees   []tableTree
	testers [][]tester // testers[g]: the trees that test group g, ascending
	strides []int      // strides[g]: words per row of group g's block
	choices []int      // choices[g]: number of choices of group g
	nTrees  float64
}

// tester is one tree's slot in a group's rows: word j of its mask for
// choice c is words[off+c*stride+j], stride being the group's.
type tester struct {
	tree int
	off  int
}

// tableTree locates one tree's data: its terms (one per group it tests,
// ascending group order), its mask width and its first leaf value.
type tableTree struct {
	terms []tableTerm
	width int // mask words per choice
	leaf  int // values[leaf] is the tree's leaf 0
}

// tableTerm addresses one (tree, group) mask: word j of choice c is
// words[off+c*strides[group]+j].
type tableTerm struct {
	off, group int
}

// LeafTables builds the leaf tables of the fitted forest for the feature
// layout group/values: feature f belongs to group group[f], and under
// choice c of that group it takes the value values[f][c].  Every feature
// of a group must list the same number of choices.  It fails when a tree
// tests a feature outside the layout, as Predict fails on a feature
// vector too short for the forest.
//
// The build runs one depth-first pass per tree that carries, for every
// group, the set of choices compatible with the path so far; each leaf
// is entered into the masks of its compatible choices.
func (f *RandomForest) LeafTables(group []int, values [][]float64) (*LeafTables, error) {
	if len(values) != len(group) {
		return nil, fmt.Errorf("ml: leaf tables: %d features grouped, %d valued", len(group), len(values))
	}
	lt := &LeafTables{nTrees: float64(len(f.trees))}
	for fe, g := range group {
		if g < 0 {
			return nil, fmt.Errorf("ml: leaf tables: feature %d in group %d", fe, g)
		}
		for len(lt.choices) <= g {
			lt.choices = append(lt.choices, 0)
		}
		switch n := len(values[fe]); {
		case n == 0:
			return nil, fmt.Errorf("ml: leaf tables: feature %d has no choices", fe)
		case lt.choices[g] == 0:
			lt.choices[g] = n
		case lt.choices[g] != n:
			return nil, fmt.Errorf("ml: leaf tables: group %d has %d choices, feature %d lists %d", g, lt.choices[g], fe, n)
		}
	}
	nGroups := len(lt.choices)
	for g, n := range lt.choices {
		if n == 0 {
			return nil, fmt.Errorf("ml: leaf tables: group %d has no features", g)
		}
	}

	// Per tree: leaf count, mask width and the groups it tests.
	lt.testers = make([][]tester, nGroups)
	lt.trees = make([]tableTree, len(f.trees))
	tests := make([]bool, nGroups)
	nLeaves := 0
	for t, tr := range f.trees {
		clear(tests)
		n := 0
		for _, nd := range tr.nodes {
			if nd.feature < 0 {
				n++
				continue
			}
			if nd.feature >= len(group) {
				return nil, fmt.Errorf("ml: leaf tables: tree %d tests feature %d, the layout has %d features", t, nd.feature, len(group))
			}
			tests[group[nd.feature]] = true
		}
		n = max(n, 1) // an unfitted tree predicts 0: one leaf
		lt.trees[t] = tableTree{width: (n + 63) / 64, leaf: nLeaves}
		nLeaves += n
		for g, ok := range tests {
			if ok {
				lt.testers[g] = append(lt.testers[g], tester{tree: t})
			}
		}
	}

	// Lay out group g's block: choices[g] rows, each the masks of the
	// trees testing g side by side.  Terms fill group by group, so every
	// tree's terms come out in ascending group order.
	lt.strides = make([]int, nGroups)
	block := 0
	for g, ts := range lt.testers {
		stride := 0
		for _, u := range ts {
			stride += lt.trees[u.tree].width
		}
		off := block
		for i, u := range ts {
			ts[i].off = off
			tr := &lt.trees[u.tree]
			tr.terms = append(tr.terms, tableTerm{off: off, group: g})
			off += tr.width
		}
		lt.strides[g] = stride
		block += lt.choices[g] * stride
	}
	lt.words = make([]uint64, block)
	lt.values = make([]float64, nLeaves)

	b := tableBuilder{lt: lt, group: group, values: values, cw: make([]int, nGroups+1)}
	for g, n := range lt.choices {
		b.cw[g+1] = b.cw[g] + (n+63)/64
	}
	// Every choice is compatible at a root; each visit restores the sets
	// it narrowed.
	b.compat = make([]uint64, b.cw[nGroups])
	for g, n := range lt.choices {
		set := b.compat[b.cw[g]:b.cw[g+1]]
		for i := range set {
			set[i] = ^uint64(0)
		}
		if r := n % 64; r != 0 {
			set[len(set)-1] = 1<<r - 1
		}
	}
	for t, tr := range f.trees {
		b.tree, b.next = &lt.trees[t], 0
		if len(tr.nodes) == 0 {
			b.leaf(0)
			continue
		}
		b.visit(tr, 0)
	}
	return lt, nil
}

// tableBuilder is the depth-first pass state of one LeafTables build.
type tableBuilder struct {
	lt     *LeafTables
	group  []int
	values [][]float64
	cw     []int    // compat[cw[g]:cw[g+1]] is group g's choice set
	compat []uint64 // choices compatible with the current path, per group
	saved  []uint64 // stack of the sets the path above narrowed
	tree   *tableTree
	next   int // the next leaf's index in the tree
}

// visit enters the subtree rooted at node id.  A split on feature f
// narrows f's group to the choices going left (f's value ≤ the
// threshold, the compare Predict makes), then to those going right.
func (b *tableBuilder) visit(tr *DecisionTree, id int32) {
	n := &tr.nodes[id]
	if n.feature < 0 {
		b.leaf(n.value)
		return
	}
	g := b.group[n.feature]
	set := b.compat[b.cw[g]:b.cw[g+1]]
	base := len(b.saved)
	b.saved = append(b.saved, set...)
	vals := b.values[n.feature]
	for c, v := range vals {
		if !(v <= n.thresh) {
			set[c/64] &^= 1 << (c % 64)
		}
	}
	b.visit(tr, n.left)
	copy(set, b.saved[base:])
	for c, v := range vals {
		if v <= n.thresh {
			set[c/64] &^= 1 << (c % 64)
		}
	}
	b.visit(tr, n.right)
	copy(set, b.saved[base:])
	b.saved = b.saved[:base]
}

// leaf numbers the next leaf of the tree, records its value and enters
// it into the mask of every compatible choice of every group the tree
// tests.
func (b *tableBuilder) leaf(value float64) {
	lt, tr := b.lt, b.tree
	k := b.next
	b.next++
	lt.values[tr.leaf+k] = value
	bit := uint64(1) << (k % 64)
	for _, tm := range tr.terms {
		words, stride := lt.words[tm.off+k/64:], lt.strides[tm.group]
		for i, w := range b.compat[b.cw[tm.group]:b.cw[tm.group+1]] {
			for ; w != 0; w &= w - 1 {
				words[(64*i+bits.TrailingZeros64(w))*stride] |= bit
			}
		}
	}
}

// check panics unless choice picks a valid choice of every group, as
// indexing a library with a bad configuration would.
func (lt *LeafTables) check(choice []int) {
	if len(choice) < len(lt.choices) {
		panic(fmt.Sprintf("ml: leaf tables: %d choices for %d groups", len(choice), len(lt.choices)))
	}
	for g, c := range choice[:len(lt.choices)] {
		lt.checkChoice(g, c)
	}
}

func (lt *LeafTables) checkChoice(g, c int) {
	if n := lt.choices[g]; uint(c) >= uint(n) {
		panic(fmt.Sprintf("ml: leaf tables: choice %d of group %d out of range [0, %d)", c, g, n))
	}
}

// TableScorer scores choice vectors over leaf tables: Reset scores one
// from scratch, one AND per tree, and Move re-scores it with one group's
// choice replaced — the access pattern of Algorithm 1's hill climb, which
// tries many moves from one parent and accepts few.
//
// For a group g, a tree's rest mask is the AND of its masks for every
// group but g at the current point.  The first Move of g after a Reset
// or an Accept builds g's rest masks; every later Move of g from the
// same point reuses them.  A Move then makes one pass over the trees in
// tree order: a tree that tests g reaches the lowest set bit of its rest
// mask ANDed with the new choice's row, found without a data-dependent
// branch, and a tree that does not test g keeps its cached leaf value.
// Move leaves the current point alone, so Reject only restores the row
// and the score; Accept adopts the Move's leaf values and drops the
// other groups' rest masks, which depended on g's old choice.
//
// Every score is bit-identical to RandomForest.Predict on the features
// the choices select.  After warm-up no method allocates.  Not safe for
// concurrent use; draw one per goroutine (the tables are shared).
type TableScorer struct {
	lt    *LeafTables
	rows  []int        // rows[g]: offset of the current choice's row in group g's block
	value []float64    // per tree: the value of the leaf reached at the current point
	next  []float64    // per tree: the value of the leaf reached at the pending Move's point
	steps [][]moveStep // steps[g]: one per tree, in tree order
	rest  []uint64     // rest masks, group by group, each group's testers in tree order
	fresh []bool       // fresh[g]: group g's rest masks are those of the current point
	group int          // the pending Move's group, or -1
	row   int          // the pending Move's group's previous row
	score float64
	prev  float64 // the score before the pending Move
}

// moveStep is one tree's part in a Move of one group.  A tree that does
// not test the group has width 0; otherwise word j of its rest mask is
// rest[rest+j], word j of its mask for choice c is words[off+c*stride+j]
// and values[leaf] is its leaf 0.
type moveStep struct {
	off, rest, leaf, width int
}

// NewScorer returns a scorer over the tables.
func (lt *LeafTables) NewScorer() *TableScorer {
	nGroups, nTrees := len(lt.choices), len(lt.trees)
	s := &TableScorer{
		lt:    lt,
		rows:  make([]int, nGroups),
		value: make([]float64, nTrees),
		next:  make([]float64, nTrees),
		steps: make([][]moveStep, nGroups),
		fresh: make([]bool, nGroups),
		group: -1,
	}
	flat := make([]moveStep, nGroups*nTrees)
	rest := 0
	for g, ts := range lt.testers {
		steps := flat[g*nTrees : (g+1)*nTrees]
		for _, u := range ts {
			tr := &lt.trees[u.tree]
			steps[u.tree] = moveStep{off: u.off, rest: rest, leaf: tr.leaf, width: tr.width}
			rest += tr.width
		}
		s.steps[g] = steps
	}
	s.rest = make([]uint64, rest)
	return s
}

// Reset scores choice from scratch (choice[g] is group g's choice) and
// makes it the current point.
func (s *TableScorer) Reset(choice []int) float64 {
	lt := s.lt
	lt.check(choice)
	for g, c := range choice[:len(lt.choices)] {
		s.rows[g] = c * lt.strides[g]
	}
	for t := range lt.trees {
		s.value[t] = lt.values[lt.trees[t].leaf+s.reach(t)]
	}
	clear(s.fresh)
	s.group = -1
	s.score = s.sum()
	return s.score
}

// Move scores the current point with group g's choice replaced by c.
// Every Move must be resolved by Accept or Reject before the next Move
// or Reset.
func (s *TableScorer) Move(g, c int) float64 {
	lt := s.lt
	lt.checkChoice(g, c)
	if !s.fresh[g] {
		s.restMasks(g)
	}
	s.group, s.row = g, s.rows[g]
	row := c * lt.strides[g]
	s.rows[g] = row
	words, values, rest, next := lt.words, lt.values, s.rest, s.next
	var v float64
	for t, st := range s.steps[g] {
		var x float64
		switch st.width {
		case 0:
			x = s.value[t]
		case 1:
			x = values[st.leaf+bits.TrailingZeros64(rest[st.rest]&words[st.off+row])]
		case 2:
			// The leaf is bit t0 of word 0, or bit t1 of word 1 when word
			// 0 is empty (t0 = 64).
			m := words[st.off+row : st.off+row+2]
			t0 := bits.TrailingZeros64(rest[st.rest] & m[0])
			t1 := bits.TrailingZeros64(rest[st.rest+1] & m[1])
			x = values[st.leaf+t0+(t0>>6)*t1]
		default:
			x = values[st.leaf+lowestBit(rest[st.rest:st.rest+st.width], words[st.off+row:])]
		}
		next[t] = x
		v += x
	}
	s.prev = s.score
	s.score = v / lt.nTrees
	return s.score
}

// Accept commits the last Move.
func (s *TableScorer) Accept() {
	if g := s.group; g >= 0 {
		s.value, s.next = s.next, s.value
		// Every other group's rest masks hold g's old choice; g's own
		// never did.
		clear(s.fresh)
		s.fresh[g] = true
	}
	s.group = -1
}

// Reject rolls the last Move back.
func (s *TableScorer) Reject() {
	if s.group >= 0 {
		s.rows[s.group] = s.row
		s.score = s.prev
	}
	s.group = -1
}

// restMasks builds group g's rest masks at the current point.
func (s *TableScorer) restMasks(g int) {
	lt := s.lt
	steps := s.steps[g]
	for _, u := range lt.testers[g] {
		tr := &lt.trees[u.tree]
		st := steps[u.tree]
		r := s.rest[st.rest : st.rest+st.width]
		for j := range r {
			r[j] = ^uint64(0)
		}
		for _, tm := range tr.terms {
			if tm.group == g {
				continue
			}
			w := lt.words[tm.off+s.rows[tm.group]:]
			for j := range r {
				r[j] &= w[j]
			}
		}
	}
	s.fresh[g] = true
}

// lowestBit returns the index of the lowest set bit of rest AND row,
// word by word, without a data-dependent branch: t counts the zero bits
// below it, and empty stays 1 while every word so far was empty.
func lowestBit(rest, row []uint64) int {
	t, empty := 0, 1
	for j, r := range rest {
		z := bits.TrailingZeros64(r & row[j])
		t += empty * z
		empty &= z >> 6
	}
	return t
}

// reach returns the leaf tree t reaches at the current point: the lowest
// set bit of the AND of its groups' masks, word by word.  A tree that
// tests no group has one leaf.
func (s *TableScorer) reach(t int) int {
	lt := s.lt
	tr := &lt.trees[t]
	for j := 0; j < tr.width; j++ {
		m := ^uint64(0)
		for _, tm := range tr.terms {
			m &= lt.words[tm.off+s.rows[tm.group]+j]
		}
		if m != 0 {
			return 64*j + bits.TrailingZeros64(m)
		}
	}
	panic("ml: leaf tables: no leaf reached")
}

// sum adds the cached leaf values in tree order and divides once, as
// RandomForest.Predict does.
func (s *TableScorer) sum() float64 {
	var v float64
	for _, x := range s.value {
		v += x
	}
	return v / s.lt.nTrees
}
