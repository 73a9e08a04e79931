package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"unsafe"

	"autoax/internal/par"
)

// cnode is one node of a compiled forest: 16 bytes, so a cache line
// holds four nodes and a root-to-leaf walk touches a fraction of the
// lines the pointer-per-tree layout did.  Leaf prediction values live in
// the parallel CompiledForest.values array — they are only read once per
// finished walk, so keeping them out of cnode halves the hot loop's
// cache traffic.  Trees are flattened in preorder with the left child
// immediately following its parent, so only the right child needs an
// index.
//
// The split threshold is stored order-mapped (orderedBits): an unsigned
// integer compare of mapped values reproduces the float64 ≤ exactly for
// non-NaN operands, and — unlike the float compare, which the compiler
// lowers to an unpredictable data-dependent branch — the integer compare
// materializes as a flag (SETcc) that feeds an arithmetic select, so the
// interleaved walks never stall on a mispredicted split.  Negative-zero
// thresholds are normalized to +0 at compile time so the mapped compare
// matches float semantics on every ±0 combination.  The scalar Predict
// keeps the original float compare via the parallel fthresh array.
//
// Leaves are self-parking: mapped threshold 0 (below every non-NaN
// feature's mapping) and right pointing at the leaf itself, so the
// branchless advance (left on mapped x ≤ thresh, right otherwise) spins a
// finished walker in place and the walk needs no per-step leaf test at
// all: the walker is simply advanced for the tree's full depth.
type cnode struct {
	thresh uint64 // order-mapped split threshold; 0 for leaves
	// fr packs the feature index (low 32 bits) and the right-child arena
	// index (high 32 bits; self for leaves) into one word, so a walk step
	// issues two loads per node instead of three.
	fr uint64
}

// packFR packs a feature index and right-child index into cnode.fr.
func packFR(feature, right int32) uint64 {
	return uint64(uint32(feature)) | uint64(uint32(right))<<32
}

func (n *cnode) featIdx() int32  { return int32(uint32(n.fr)) }
func (n *cnode) rightIdx() int32 { return int32(uint32(n.fr >> 32)) }

// orderedBits maps a float64 to a uint64 whose unsigned order matches the
// float order for all non-NaN values: positive values get the sign bit
// set, negative values are bitwise inverted.  Branchless.
func orderedBits(v float64) uint64 {
	u := math.Float64bits(v)
	return u ^ (uint64(int64(u)>>63) | 0x8000000000000000)
}

// CompiledForest is a RandomForest flattened into one contiguous node
// arena for cache-friendly inference.  It is immutable and safe for
// concurrent use, and Predict is bit-identical to the source forest's
// tree-walking Predict (same per-tree traversal, same summation order,
// same final division).
type CompiledForest struct {
	nodes   []cnode
	values  []float64 // per-node leaf values (0 for internal nodes)
	fthresh []float64 // per-node float thresholds, read only by Predict
	roots   []int32
	depths  []int32 // per-tree root-to-leaf edge count, max over leaves
	order   []int32 // tree indices grouped by depth for chunked walks
	maxFeat int32   // largest feature index any node tests
	nTrees  float64
}

// Compile flattens a fitted forest into a CompiledForest.
func (f *RandomForest) Compile() *CompiledForest {
	cf := &CompiledForest{
		roots:  make([]int32, 0, len(f.trees)),
		depths: make([]int32, 0, len(f.trees)),
		nTrees: float64(len(f.trees)),
	}
	for _, t := range f.trees {
		cf.roots = append(cf.roots, int32(len(cf.nodes)))
		if len(t.nodes) == 0 {
			// An unfitted tree predicts 0 (DecisionTree.Predict's guard).
			cf.addLeaf(0)
			cf.depths = append(cf.depths, 0)
			continue
		}
		cf.depths = append(cf.depths, cf.flatten(t, 0))
	}
	// Walk schedule: trees sorted by (depth, index).  A chunk of
	// similar-depth trees advances for its max member depth, so grouping
	// by depth removes the shallow-tree spin cost; prediction output is
	// unaffected because leaf values are accumulated in tree order, not
	// walk order.
	cf.order = make([]int32, len(cf.roots))
	for i := range cf.order {
		cf.order[i] = int32(i)
	}
	sort.Slice(cf.order, func(a, b int) bool {
		x, y := cf.order[a], cf.order[b]
		if cf.depths[x] != cf.depths[y] {
			return cf.depths[x] < cf.depths[y]
		}
		return x < y
	})
	return cf
}

// NumTrees returns the number of trees in the compiled forest.
func (cf *CompiledForest) NumTrees() int { return len(cf.roots) }

// addLeaf appends a self-parking leaf node carrying value.
func (cf *CompiledForest) addLeaf(value float64) {
	self := int32(len(cf.nodes))
	cf.nodes = append(cf.nodes, cnode{thresh: 0, fr: packFR(0, self)})
	cf.values = append(cf.values, value)
	cf.fthresh = append(cf.fthresh, 0)
}

// flatten copies the subtree rooted at tree node id into the arena in
// preorder and returns its depth in edges; the left child lands at the
// slot right after its parent.
func (cf *CompiledForest) flatten(t *DecisionTree, id int32) int32 {
	n := t.nodes[id]
	self := int32(len(cf.nodes))
	if n.feature < 0 {
		cf.addLeaf(n.value)
		return 0
	}
	// +0.0 normalizes a −0.0 threshold (−0+0 = +0) without touching any
	// other value, keeping the mapped compare exact on ±0.
	cf.nodes = append(cf.nodes, cnode{
		thresh: orderedBits(n.thresh + 0.0),
	})
	cf.values = append(cf.values, 0)
	cf.fthresh = append(cf.fthresh, n.thresh+0.0)
	if int32(n.feature) > cf.maxFeat {
		cf.maxFeat = int32(n.feature)
	}
	dl := cf.flatten(t, n.left)
	cf.nodes[self].fr = packFR(int32(n.feature), int32(len(cf.nodes)))
	dr := cf.flatten(t, n.right)
	if dr > dl {
		dl = dr
	}
	return dl + 1
}

// walkWidth is how many independent root-to-leaf walks the inference
// paths keep in flight at once.  A walk is a chain of dependent loads
// into an arena that typically overflows L1 plus a data-dependent
// left/right select; advancing walkWidth independent chains per round
// lets the memory system overlap the loads, and the select is computed
// arithmetically (SETcc + mask) so no unpredictable branch stalls the
// rounds.  8 saturates the load queues of current cores without spilling
// the walker state off registers/stack.
const walkWidth = 8

// walkWidthWide doubles the in-flight walks for the bulk paths
// (PredictBatch chunks, walkValues full chunks): sixteen chains spill a
// few walker ids to the stack, but with a node arena that misses to
// L2/L3 the extra outstanding loads hide more latency than the spills
// cost.  The narrow paths keep walkWidth.
const walkWidthWide = 16

// nodeAt returns the arena node at id without a bounds check.  Every id a
// walk can reach is a valid arena index by construction: Compile writes
// child indices pointing inside the arena and leaves self-loop, so the
// invariant is established once at compile time, like the netlist
// program's slot access.
func nodeAt(nodes []cnode, id int32) *cnode {
	return (*cnode)(unsafe.Add(unsafe.Pointer(&nodes[0]), uintptr(uint32(id))*unsafe.Sizeof(cnode{})))
}

// featAt loads the order-mapped feature f without a bounds check; callers
// establish len(mx) > cf.maxFeat before entering a walk (leaves test
// feature 0, so mx must be non-empty).
func featAt(mx []uint64, f int32) uint64 {
	return *(*uint64)(unsafe.Add(unsafe.Pointer(&mx[0]), uintptr(uint32(f))*8))
}

// step advances one walker: arithmetic select between the adjacent left
// child and the right index, with no branch.  mx holds order-mapped
// feature values; see cnode for why the compare is exact.  (A two-armed
// `if` form reads as a CMOV candidate but the compiler lowers it to a
// real branch, and the data-dependent mispredicts cost ~1.5× end to end
// — measured, do not "simplify" this back.)
func step(nodes []cnode, mx []uint64, id int32) int32 {
	n := nodeAt(nodes, id)
	fr := n.fr
	var cc int32
	if featAt(mx, int32(uint32(fr))) <= n.thresh {
		cc = 1
	}
	right := int32(uint32(fr >> 32))
	left := id + 1
	return right + (left-right)&(-cc)
}

// Predict averages the trees' predictions for one feature vector, one
// walker per tree in tree order — bit-identical to the source forest's
// tree-walking Predict (same additions, same final division).  It
// performs no allocations.  The batched access patterns the search loops
// use run through PredictBatch and IncrementalPredictor, whose
// interleaved branchless walkers pay off on varied inputs; the scalar
// walk keeps the plain form — with the untransformed float compare
// (fthresh), which branch prediction serves well for the repeated or
// similar probes single-point callers make.  (An interleaved walk8 form
// was measured here too: it wins ~2× on fully varied probes but loses
// ~30-60% on the semi-repeated probes estimator loops actually issue —
// the batch paths are where interleaving pays.)
func (cf *CompiledForest) Predict(x []float64) float64 {
	var s float64
	nodes := cf.nodes
	for _, root := range cf.roots {
		id := root
		for {
			n := &nodes[id]
			if n.rightIdx() == id { // self-parking leaf
				s += cf.values[id]
				break
			}
			if x[n.featIdx()] <= cf.fthresh[id] {
				id++
			} else {
				id = n.rightIdx()
			}
		}
	}
	return s / cf.nTrees
}

// PredictBatch predicts n feature vectors at once, writing prediction i
// to out[i].  x is the struct-of-arrays (feature-major) matrix: x[f*n+i]
// is feature f of point i, with len(x) = numFeatures*n.  The walk is
// trees-outer/points-inner with walkWidthWide points advancing
// concurrently through each tree (independent branchless chains,
// overlapped loads); every point still accumulates its leaf values in
// tree order and divides once at the end, so PredictBatch is
// bit-identical to n scalar Predict calls.  It performs no allocations.
// Like Predict, feature values must not be NaN.
func (cf *CompiledForest) PredictBatch(x []float64, n int, out []float64) {
	out = out[:n]
	nf := int(cf.maxFeat) + 1
	if nf > premapFeatures {
		cf.predictBatchDirect(x, n, out)
		return
	}
	for i := range out {
		out[i] = 0
	}
	// Chunks-outer: order-map each chunk's features once into a
	// point-major stack buffer, then run every tree over the chunk.  The
	// map cost is paid per chunk instead of per node visit.  Walker rows
	// live at a fixed premapFeatures (power-of-two) stride so a visit's
	// feature load is one running byte offset plus the feature index — no
	// per-visit multiply, bounds check, or slice header.
	nodes := cf.nodes
	var mxbuf [walkWidthWide * premapFeatures]uint64
	mxp := unsafe.Pointer(&mxbuf[0])
	for base := 0; base < n; base += walkWidthWide {
		m := n - base
		if m > walkWidthWide {
			m = walkWidthWide
		}
		for f := 0; f < nf; f++ {
			col := x[f*n+base:]
			for j := 0; j < m; j++ {
				mxbuf[j*premapFeatures+f] = orderedBits(col[j])
			}
		}
		acc := out[base : base+m]
		if m == walkWidthWide {
			// Full chunks take the unrolled register walker.
			for t, root := range cf.roots {
				depth := cf.depths[t]
				if depth == 0 { // single-leaf tree: broadcast
					v := cf.values[root]
					for j := range acc {
						acc[j] += v
					}
					continue
				}
				walkChunk16(nodes, cf.values, mxp, root, depth, acc)
			}
			continue
		}
		for t, root := range cf.roots {
			depth := cf.depths[t]
			if depth == 0 { // single-leaf tree: broadcast
				v := cf.values[root]
				for j := range acc {
					acc[j] += v
				}
				continue
			}
			var ids [walkWidthWide]int32
			for j := 0; j < m; j++ {
				ids[j] = root
			}
			for r := int32(0); r < depth; {
				var moved int32
				for k := 0; k < 2 && r < depth; k, r = k+1, r+1 {
					joff := uintptr(0)
					for j := 0; j < m; j++ {
						id := ids[j]
						nd := nodeAt(nodes, id)
						fr := nd.fr
						var cc int32
						if *(*uint64)(unsafe.Add(mxp, joff+uintptr(uint32(fr))*8)) <= nd.thresh {
							cc = 1
						}
						right := int32(uint32(fr >> 32))
						left := id + 1
						id2 := right + (left-right)&(-cc)
						moved |= id2 ^ id
						ids[j] = id2
						joff += rowBytes
					}
				}
				if moved == 0 {
					break
				}
			}
			for j := 0; j < m; j++ {
				acc[j] += cf.values[ids[j]]
			}
		}
	}
	for i := range out {
		out[i] /= cf.nTrees
	}
}

// premapFeatures bounds the per-chunk order-mapped feature buffer
// PredictBatch keeps on the stack; forests testing more features than
// this take the direct (map-per-visit) walk instead.
const premapFeatures = 64

// rowBytes is the byte stride between walker feature rows in the chunk
// buffer — a power of two so row addressing is a shift, not a multiply.
const rowBytes = premapFeatures * 8

// chunkStep advances one batch walker whose order-mapped features live at
// row (one rowBytes-stride row of the chunk buffer): same arithmetic
// select as step, feature load by raw row offset.
func chunkStep(nodes []cnode, row unsafe.Pointer, id int32) int32 {
	n := nodeAt(nodes, id)
	fr := n.fr
	var cc int32
	if *(*uint64)(unsafe.Add(row, uintptr(uint32(fr))*8)) <= n.thresh {
		cc = 1
	}
	right := int32(uint32(fr >> 32))
	left := id + 1
	return right + (left-right)&(-cc)
}

// walkChunk16 advances one tree over a full chunk of sixteen points: all
// sixteen walker ids live in locals (no per-visit array traffic) and each
// walker's feature row is a fixed pointer, so a visit is the bare
// load/compare/select chain.  Rounds advance in pairs between moved
// checks, exactly like walk16; leaves accumulate into acc per point.
func walkChunk16(nodes []cnode, values []float64, mxp unsafe.Pointer, root, depth int32, acc []float64) {
	p0, p1 := mxp, unsafe.Add(mxp, 1*rowBytes)
	p2, p3 := unsafe.Add(mxp, 2*rowBytes), unsafe.Add(mxp, 3*rowBytes)
	p4, p5 := unsafe.Add(mxp, 4*rowBytes), unsafe.Add(mxp, 5*rowBytes)
	p6, p7 := unsafe.Add(mxp, 6*rowBytes), unsafe.Add(mxp, 7*rowBytes)
	p8, p9 := unsafe.Add(mxp, 8*rowBytes), unsafe.Add(mxp, 9*rowBytes)
	pA, pB := unsafe.Add(mxp, 10*rowBytes), unsafe.Add(mxp, 11*rowBytes)
	pC, pD := unsafe.Add(mxp, 12*rowBytes), unsafe.Add(mxp, 13*rowBytes)
	pE, pF := unsafe.Add(mxp, 14*rowBytes), unsafe.Add(mxp, 15*rowBytes)
	id0, id1, id2, id3 := root, root, root, root
	id4, id5, id6, id7 := root, root, root, root
	id8, id9, idA, idB := root, root, root, root
	idC, idD, idE, idF := root, root, root, root
	for r := int32(0); r < depth; {
		s0 := chunkStep(nodes, p0, id0)
		s1 := chunkStep(nodes, p1, id1)
		s2 := chunkStep(nodes, p2, id2)
		s3 := chunkStep(nodes, p3, id3)
		s4 := chunkStep(nodes, p4, id4)
		s5 := chunkStep(nodes, p5, id5)
		s6 := chunkStep(nodes, p6, id6)
		s7 := chunkStep(nodes, p7, id7)
		s8 := chunkStep(nodes, p8, id8)
		s9 := chunkStep(nodes, p9, id9)
		sA := chunkStep(nodes, pA, idA)
		sB := chunkStep(nodes, pB, idB)
		sC := chunkStep(nodes, pC, idC)
		sD := chunkStep(nodes, pD, idD)
		sE := chunkStep(nodes, pE, idE)
		sF := chunkStep(nodes, pF, idF)
		moved := (s0 ^ id0) | (s1 ^ id1) | (s2 ^ id2) | (s3 ^ id3) |
			(s4 ^ id4) | (s5 ^ id5) | (s6 ^ id6) | (s7 ^ id7) |
			(s8 ^ id8) | (s9 ^ id9) | (sA ^ idA) | (sB ^ idB) |
			(sC ^ idC) | (sD ^ idD) | (sE ^ idE) | (sF ^ idF)
		id0, id1, id2, id3 = s0, s1, s2, s3
		id4, id5, id6, id7 = s4, s5, s6, s7
		id8, id9, idA, idB = s8, s9, sA, sB
		idC, idD, idE, idF = sC, sD, sE, sF
		if moved == 0 {
			break
		}
		r++
		if r >= depth {
			break
		}
		id0 = chunkStep(nodes, p0, id0)
		id1 = chunkStep(nodes, p1, id1)
		id2 = chunkStep(nodes, p2, id2)
		id3 = chunkStep(nodes, p3, id3)
		id4 = chunkStep(nodes, p4, id4)
		id5 = chunkStep(nodes, p5, id5)
		id6 = chunkStep(nodes, p6, id6)
		id7 = chunkStep(nodes, p7, id7)
		id8 = chunkStep(nodes, p8, id8)
		id9 = chunkStep(nodes, p9, id9)
		idA = chunkStep(nodes, pA, idA)
		idB = chunkStep(nodes, pB, idB)
		idC = chunkStep(nodes, pC, idC)
		idD = chunkStep(nodes, pD, idD)
		idE = chunkStep(nodes, pE, idE)
		idF = chunkStep(nodes, pF, idF)
		r++
	}
	acc[0] += values[id0]
	acc[1] += values[id1]
	acc[2] += values[id2]
	acc[3] += values[id3]
	acc[4] += values[id4]
	acc[5] += values[id5]
	acc[6] += values[id6]
	acc[7] += values[id7]
	acc[8] += values[id8]
	acc[9] += values[id9]
	acc[10] += values[idA]
	acc[11] += values[idB]
	acc[12] += values[idC]
	acc[13] += values[idD]
	acc[14] += values[idE]
	acc[15] += values[idF]
}

// predictBatchDirect is the PredictBatch walk without the premapped
// feature buffer, for forests too feature-wide for the stack buffer.
// Identical arithmetic, feature values mapped at every visit.
func (cf *CompiledForest) predictBatchDirect(x []float64, n int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	nodes := cf.nodes
	for t, root := range cf.roots {
		depth := cf.depths[t]
		if depth == 0 { // single-leaf tree: broadcast
			v := cf.values[root]
			for i := range out {
				out[i] += v
			}
			continue
		}
		for base := 0; base < n; base += walkWidthWide {
			m := n - base
			if m > walkWidthWide {
				m = walkWidthWide
			}
			var ids [walkWidthWide]int32
			for j := 0; j < m; j++ {
				ids[j] = root
			}
			for r := int32(0); r < depth; {
				var moved int32
				for k := 0; k < 2 && r < depth; k, r = k+1, r+1 {
					for j := 0; j < m; j++ {
						nd := &nodes[ids[j]]
						var cc int32
						if orderedBits(x[int(nd.featIdx())*n+base+j]) <= nd.thresh {
							cc = 1
						}
						right := nd.rightIdx()
						left := ids[j] + 1
						id2 := right + (left-right)&(-cc)
						moved |= id2 ^ ids[j]
						ids[j] = id2
					}
				}
				if moved == 0 {
					break
				}
			}
			for j := 0; j < m; j++ {
				out[base+j] += cf.values[ids[j]]
			}
		}
	}
	for i := range out {
		out[i] /= cf.nTrees
	}
}

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
		tr.rng = rand.New(rand.NewSource(b.seed))
		tr.fitRanked(bx, by, nil, r.subset(b.src))
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
