package ml

// FeatureBit returns the path-mask bit for feature f.  Features ≥ 63
// share bit 63 (saturating), which keeps mask tests conservative: a
// shared bit can force an unnecessary re-walk but never an unsound skip.
func FeatureBit(f int) uint64 {
	if f >= 63 {
		return 1 << 63
	}
	return 1 << uint(f)
}

// IncrementalPredictor evaluates a compiled forest at a point that
// evolves by small feature edits — the access pattern of Algorithm 1's
// hill climb, where each neighbor differs from its parent in a handful of
// feature slots.  It caches every tree's leaf value together with the set
// of features the tree's realized root-to-leaf path tested (a saturating
// 64-bit mask, see FeatureBit).  Move re-walks only trees whose recorded
// path tested a changed feature: any other tree's comparisons all read
// unchanged features, so its path — and leaf — are provably identical.  A
// rejected move restores the cached state in O(re-walked trees).
//
// Move runs a value-only walk; the path masks of the re-walked trees are
// refreshed lazily by Accept (which re-walks the same trees with mask
// recording), because a rejected move — the common case in a stagnating
// climb — restores the old masks anyway, and the value-only step is
// meaningfully cheaper.
//
// Predictions are bit-identical to CompiledForest.Predict: leaf values
// are accumulated in tree order and divided once at the end.  After the
// predictor warms up, Reset, Move, Accept and Reject perform no
// allocations.  Not safe for concurrent use; create one per goroutine
// (the compiled forest itself is shared and immutable).
type IncrementalPredictor struct {
	cf     *CompiledForest
	mx     []uint64  // order-mapped features of the current point
	leaves []float64 // per-tree cached leaf values
	masks  []uint64  // per-tree realized-path feature masks
	dirty  []int32   // trees touched by the pending Move, depth-grouped
	undo   []float64 // pre-Move leaves of the dirty trees, parallel
	mxUndo []mxUndo

	// Dense mode: when the observed dirty fraction shows the mask filter
	// barely skips anything (models whose trees test every feature on
	// most paths, e.g. few-feature QoR models), the predictor flips —
	// permanently — to walking every tree per Move with a flat copy-out
	// undo.  That trades ≤ (1−dirtyRate) extra walk volume for dropping
	// the per-tree scan, append and accept-time mask re-walk entirely.
	moves, dirtySum int
	dense           bool
	pendingDense    bool // which kind of undo the unresolved Move left
	denseUndo       []float64
}

// Dense-mode switch: after denseWarmup moves, flip when the average dirty
// fraction is at least denseThreshold of the forest.
const (
	denseWarmup    = 32
	denseThreshold = 0.85
)

type mxUndo struct {
	feat int32
	val  uint64
}

// NewIncremental returns an incremental predictor over the forest.
func (cf *CompiledForest) NewIncremental() *IncrementalPredictor {
	n := len(cf.roots)
	return &IncrementalPredictor{
		cf:     cf,
		leaves: make([]float64, n),
		masks:  make([]uint64, n),
		dirty:  make([]int32, 0, n),
		undo:   make([]float64, 0, n),
	}
}

// Reset walks every tree for x, (re)filling the leaf and path-mask caches
// (dense mode refills the leaves only: it never reads the masks again),
// and returns the prediction.  x must cover every feature the forest
// tests (len(x) > max feature index), as with Predict.
func (p *IncrementalPredictor) Reset(x []float64) float64 {
	cf := p.cf
	if len(x) <= int(cf.maxFeat) {
		panic("ml: incremental predictor: feature vector shorter than the forest's feature set")
	}
	if cap(p.mx) < len(x) {
		p.mx = make([]uint64, len(x))
	}
	p.mx = p.mx[:len(x)]
	for f, v := range x {
		p.mx[f] = orderedBits(v)
	}
	p.clearPending()
	if p.dense {
		p.walkValues(cf.order)
	} else {
		p.walkMasks(cf.order)
	}
	return p.sum()
}

// Move updates features changed (indices into x, already holding their
// new values) and returns the prediction for the edited point, re-walking
// only the trees whose cached paths tested a changed feature.  Every Move
// must be resolved by Accept or Reject before the next Move or Reset.
func (p *IncrementalPredictor) Move(x []float64, changed []int) float64 {
	var delta uint64
	p.mxUndo = p.mxUndo[:0]
	for _, f := range changed {
		delta |= FeatureBit(f)
		p.mxUndo = append(p.mxUndo, mxUndo{feat: int32(f), val: p.mx[f]})
		p.mx[f] = orderedBits(x[f])
	}
	if p.dense {
		p.pendingDense = true
		if cap(p.denseUndo) < len(p.leaves) {
			p.denseUndo = make([]float64, len(p.leaves))
		}
		p.denseUndo = p.denseUndo[:len(p.leaves)]
		copy(p.denseUndo, p.leaves)
		p.walkValues(p.cf.order)
		return p.sum()
	}
	p.pendingDense = false
	// Collect dirty trees via cf.order so chunks group similar depths,
	// capturing the pre-Move leaves for Reject in the same pass.
	p.dirty = p.dirty[:0]
	p.undo = p.undo[:0]
	for _, t := range p.cf.order {
		if p.masks[t]&delta != 0 {
			p.dirty = append(p.dirty, t)
			p.undo = append(p.undo, p.leaves[t])
		}
	}
	p.moves++
	p.dirtySum += len(p.dirty)
	if p.moves == denseWarmup {
		if float64(p.dirtySum) >= denseThreshold*float64(denseWarmup*len(p.leaves)) {
			p.dense = true // one-way: masks go stale and are never read again
		}
		p.moves, p.dirtySum = 0, 0
	}
	p.walkValues(p.dirty)
	return p.sum()
}

// Accept commits the last Move and, in sparse mode, refreshes the
// re-walked trees' path masks (the value-only Move walk leaves them
// stale; dense mode never reads them again).
func (p *IncrementalPredictor) Accept() {
	if !p.pendingDense {
		p.walkMasks(p.dirty)
	}
	p.clearPending()
}

// Reject rolls the last Move back: cached leaves and mapped features
// return to the pre-Move state (path masks were not touched by Move).
func (p *IncrementalPredictor) Reject() {
	if p.pendingDense {
		copy(p.leaves, p.denseUndo)
	} else {
		for i, t := range p.dirty {
			p.leaves[t] = p.undo[i]
		}
	}
	for _, u := range p.mxUndo {
		p.mx[u.feat] = u.val
	}
	p.clearPending()
}

func (p *IncrementalPredictor) clearPending() {
	p.dirty = p.dirty[:0]
	p.undo = p.undo[:0]
	p.mxUndo = p.mxUndo[:0]
}

// walkValues runs the chunked branchless walk over the given trees,
// refreshing their cached leaf values only.  Full chunks use
// register-resident walkers (walk8); the tail chunk takes the array
// loop.  (A 16-wide chunk was measured here and lost ~20% end to end:
// sixteen walker ids spill, and the coarser early exit — the deepest of
// sixteen trees gates every walker's rounds instead of the deepest of
// eight — adds parked spins; the wide walker only pays where all rounds
// are uniform, as in PredictBatch's per-tree point chunks.)
func (p *IncrementalPredictor) walkValues(trees []int32) {
	cf := p.cf
	nodes := cf.nodes
	mx := p.mx
	c := 0
	for ; c+walkWidth <= len(trees); c += walkWidth {
		rounds := int32(0)
		for j := 0; j < walkWidth; j++ {
			if d := cf.depths[trees[c+j]]; d > rounds {
				rounds = d
			}
		}
		walk8(nodes, cf.values, mx, cf.roots, trees[c:c+walkWidth], p.leaves, rounds)
	}
	if c == len(trees) {
		return
	}
	m := len(trees) - c
	var ids [walkWidth]int32
	rounds := int32(0)
	for j := 0; j < m; j++ {
		t := trees[c+j]
		ids[j] = cf.roots[t]
		if d := cf.depths[t]; d > rounds {
			rounds = d
		}
	}
	for r := int32(0); r < rounds; r++ {
		for j := 0; j < m; j++ {
			ids[j] = step(nodes, mx, ids[j])
		}
	}
	for j := 0; j < m; j++ {
		p.leaves[trees[c+j]] = cf.values[ids[j]]
	}
}

// walk8 advances eight walkers held in locals — not a stack array — so
// each walker's id stays in a register instead of round-tripping through
// a store/load pair every level, and writes the eight leaf values.  It
// exits as soon as a two-round block moves no walker (all parked).
func walk8(nodes []cnode, values []float64, mx []uint64, roots []int32, trees []int32, leaves []float64, rounds int32) {
	id0 := roots[trees[0]]
	id1 := roots[trees[1]]
	id2 := roots[trees[2]]
	id3 := roots[trees[3]]
	id4 := roots[trees[4]]
	id5 := roots[trees[5]]
	id6 := roots[trees[6]]
	id7 := roots[trees[7]]
	for r := int32(0); r < rounds; {
		s0 := step(nodes, mx, id0)
		s1 := step(nodes, mx, id1)
		s2 := step(nodes, mx, id2)
		s3 := step(nodes, mx, id3)
		s4 := step(nodes, mx, id4)
		s5 := step(nodes, mx, id5)
		s6 := step(nodes, mx, id6)
		s7 := step(nodes, mx, id7)
		moved := (s0 ^ id0) | (s1 ^ id1) | (s2 ^ id2) | (s3 ^ id3) |
			(s4 ^ id4) | (s5 ^ id5) | (s6 ^ id6) | (s7 ^ id7)
		id0, id1, id2, id3 = s0, s1, s2, s3
		id4, id5, id6, id7 = s4, s5, s6, s7
		if moved == 0 {
			break
		}
		id0 = step(nodes, mx, id0)
		id1 = step(nodes, mx, id1)
		id2 = step(nodes, mx, id2)
		id3 = step(nodes, mx, id3)
		id4 = step(nodes, mx, id4)
		id5 = step(nodes, mx, id5)
		id6 = step(nodes, mx, id6)
		id7 = step(nodes, mx, id7)
		r += 2
	}
	leaves[trees[0]] = values[id0]
	leaves[trees[1]] = values[id1]
	leaves[trees[2]] = values[id2]
	leaves[trees[3]] = values[id3]
	leaves[trees[4]] = values[id4]
	leaves[trees[5]] = values[id5]
	leaves[trees[6]] = values[id6]
	leaves[trees[7]] = values[id7]
}

// walkMasks is walkValues with path-mask recording: each walker ORs the
// FeatureBit of every internal node it visits (parked walkers sit on
// leaves and stay clean).  It runs only on Reset and Accept, so it keeps
// the plain array-walker loop.
func (p *IncrementalPredictor) walkMasks(trees []int32) {
	cf := p.cf
	nodes := cf.nodes
	mx := p.mx
	for c := 0; c < len(trees); c += walkWidth {
		m := len(trees) - c
		if m > walkWidth {
			m = walkWidth
		}
		var ids [walkWidth]int32
		var pm [walkWidth]uint64
		rounds := int32(0)
		for j := 0; j < m; j++ {
			t := trees[c+j]
			ids[j] = cf.roots[t]
			if d := cf.depths[t]; d > rounds {
				rounds = d
			}
		}
		for r := int32(0); r < rounds; r++ {
			for j := 0; j < m; j++ {
				n := nodeAt(nodes, ids[j])
				if n.thresh != 0 { // internal node (leaves map to 0)
					pm[j] |= FeatureBit(int(n.featIdx()))
				}
				ids[j] = step(nodes, mx, ids[j])
			}
		}
		for j := 0; j < m; j++ {
			t := trees[c+j]
			p.leaves[t] = cf.values[ids[j]]
			p.masks[t] = pm[j]
		}
	}
}

// sum accumulates the cached leaves in tree order — the same additions
// and final division Predict performs.
func (p *IncrementalPredictor) sum() float64 {
	var s float64
	for _, v := range p.leaves {
		s += v
	}
	return s / p.cf.nTrees
}
