package netlist

import (
	"fmt"
	"math/bits"

	"autoax/internal/cell"
)

// Builder constructs netlists incrementally.  It performs light constant
// folding and structural hashing on the fly so that generator code can be
// written naively; the heavier Simplify pass performs the full
// synthesis-style cleanup.
type Builder struct {
	n *Netlist
	// table is an open-addressed (linear probing) hash set of the emitted
	// gates: each entry is 1 + the gate's index in
	// n.Gates, 0 marks an empty slot.  The stored gate is the normalized
	// key, so a probe compares against n.Gates directly.  len(table) is a
	// power of two kept at least twice the entry count; it is *tableBuf,
	// borrowed from tablePool and returned by Build.
	table    []int32
	tableBuf *[]int32
	hashed   int      // occupied entries of table
	inst     []Signal // Instantiate's sub-netlist signal map, reused
}

// minTable is the smallest hash table a Builder allocates.
const minTable = 64

// tablePool recycles Builder hash tables across builders (one rewrite
// pass, one Flatten, one generated circuit each).
var tablePool slicePool[int32]

// NewBuilder returns a builder for a netlist with the given name and number
// of primary inputs.
func NewBuilder(name string, numInputs int) *Builder {
	return &Builder{n: &Netlist{Name: name, NumInputs: numInputs}}
}

// Grow reserves room for n more gates: the gate list and the structural
// hash table are sized once instead of growing step by step.  Callers that
// know what they are about to emit (a rewrite of a known netlist, the
// instantiation of known sub-circuits) pass that gate count.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	if want := len(b.n.Gates) + n; cap(b.n.Gates) < want {
		gates := make([]Gate, len(b.n.Gates), want)
		copy(gates, b.n.Gates)
		b.n.Gates = gates
	}
	b.reserve(b.hashed + n)
}

// reserve makes the hash table hold entries at a load of at most one half.
func (b *Builder) reserve(entries int) {
	size := minTable
	if 2*entries > size {
		size = 1 << bits.Len(uint(2*entries-1))
	}
	if size <= len(b.table) {
		return
	}
	old, oldBuf := b.table, b.tableBuf
	b.tableBuf = tablePool.get(size)
	b.table = *b.tableBuf
	mask := uint64(size - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := gateHash(b.n.Gates[e-1]) & mask
		for b.table[i] != 0 {
			i = (i + 1) & mask
		}
		b.table[i] = e
	}
	tablePool.put(oldBuf)
}

// gateHash mixes a normalized gate into a table index.
func gateHash(g Gate) uint64 {
	x := uint64(uint32(g.A)) | uint64(uint32(g.B))<<32
	y := uint64(uint32(g.C)) | uint64(g.Kind)<<32
	h := x*0x9e3779b97f4a7c15 ^ y*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

// Input returns the signal of primary input i.
func (b *Builder) Input(i int) Signal {
	if i < 0 || i >= b.n.NumInputs {
		panic(fmt.Sprintf("netlist: input %d out of range [0,%d)", i, b.n.NumInputs))
	}
	return Signal(i)
}

// Inputs returns all primary input signals in order.
func (b *Builder) Inputs() []Signal {
	s := make([]Signal, b.n.NumInputs)
	for i := range s {
		s[i] = Signal(i)
	}
	return s
}

// emit appends a gate unless it folds away or an equal gate exists.
func (b *Builder) emit(k cell.Kind, a, bb, c Signal) Signal {
	if s, ok := foldGate(k, a, bb, c, b.n); ok {
		return s
	}
	// Normalize commutative operand order for hashing.
	switch k {
	case cell.And2, cell.Or2, cell.Nand2, cell.Nor2, cell.Xor2, cell.Xnor2:
		if a > bb {
			a, bb = bb, a
		}
	}
	g := Gate{Kind: k, A: a, B: bb, C: c}
	if 2*(b.hashed+1) > len(b.table) {
		b.reserve(b.hashed + 1)
	}
	mask := uint64(len(b.table) - 1)
	i := gateHash(g) & mask
	for e := b.table[i]; e != 0; e = b.table[i] {
		if b.n.Gates[e-1] == g {
			return Signal(b.n.NumInputs) + e - 1
		}
		i = (i + 1) & mask
	}
	b.n.Gates = append(b.n.Gates, g)
	b.table[i] = int32(len(b.n.Gates))
	b.hashed++
	return Signal(b.n.NumNodes() - 1)
}

// Not emits an inverter.
func (b *Builder) Not(a Signal) Signal { return b.emit(cell.Inv, a, 0, 0) }

// And emits a 2-input AND.
func (b *Builder) And(a, c Signal) Signal { return b.emit(cell.And2, a, c, 0) }

// Or emits a 2-input OR.
func (b *Builder) Or(a, c Signal) Signal { return b.emit(cell.Or2, a, c, 0) }

// Nand emits a 2-input NAND.
func (b *Builder) Nand(a, c Signal) Signal { return b.emit(cell.Nand2, a, c, 0) }

// Nor emits a 2-input NOR.
func (b *Builder) Nor(a, c Signal) Signal { return b.emit(cell.Nor2, a, c, 0) }

// Xor emits a 2-input XOR.
func (b *Builder) Xor(a, c Signal) Signal { return b.emit(cell.Xor2, a, c, 0) }

// Xnor emits a 2-input XNOR.
func (b *Builder) Xnor(a, c Signal) Signal { return b.emit(cell.Xnor2, a, c, 0) }

// Mux emits sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi Signal) Signal { return b.emit(cell.Mux2, sel, lo, hi) }

// AndNot emits a AND NOT c.
func (b *Builder) AndNot(a, c Signal) Signal { return b.emit(cell.AndN2, a, c, 0) }

// OrNot emits a OR NOT c.
func (b *Builder) OrNot(a, c Signal) Signal { return b.emit(cell.OrN2, a, c, 0) }

// OrMany reduces signals with a balanced OR tree; empty input yields Const0.
func (b *Builder) OrMany(ss ...Signal) Signal {
	switch len(ss) {
	case 0:
		return Const0
	case 1:
		return ss[0]
	}
	mid := len(ss) / 2
	return b.Or(b.OrMany(ss[:mid]...), b.OrMany(ss[mid:]...))
}

// FullAdder emits a full adder and returns (sum, carry).
func (b *Builder) FullAdder(x, y, cin Signal) (sum, cout Signal) {
	axy := b.Xor(x, y)
	sum = b.Xor(axy, cin)
	cout = b.Or(b.And(x, y), b.And(axy, cin))
	return sum, cout
}

// Output registers a primary output.
func (b *Builder) Output(s Signal) { b.n.Outputs = append(b.n.Outputs, s) }

// OutputBus registers a bus of outputs in order (bit 0 first).
func (b *Builder) OutputBus(ss []Signal) { b.n.Outputs = append(b.n.Outputs, ss...) }

// Instantiate splices a sub-netlist into this builder, connecting the
// sub-circuit's primary inputs to the given signals, and returns the signals
// corresponding to the sub-circuit's outputs.
func (b *Builder) Instantiate(sub *Netlist, inputs []Signal) []Signal {
	if len(inputs) != sub.NumInputs {
		panic(fmt.Sprintf("netlist: Instantiate %q got %d inputs, want %d", sub.Name, len(inputs), sub.NumInputs))
	}
	if cap(b.inst) < sub.NumNodes() {
		b.inst = make([]Signal, sub.NumNodes())
	}
	mapped := b.inst[:sub.NumNodes()]
	copy(mapped, inputs)
	resolve := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return mapped[s]
	}
	for i, g := range sub.Gates {
		var s Signal
		switch cell.Arity(g.Kind) {
		case 1:
			s = b.emit(g.Kind, resolve(g.A), 0, 0)
		case 2:
			s = b.emit(g.Kind, resolve(g.A), resolve(g.B), 0)
		default:
			s = b.emit(g.Kind, resolve(g.A), resolve(g.B), resolve(g.C))
		}
		mapped[sub.NumInputs+i] = s
	}
	outs := make([]Signal, len(sub.Outputs))
	for i, o := range sub.Outputs {
		outs[i] = resolve(o)
	}
	return outs
}

// Build finalizes and returns the netlist.  The builder must not be used
// afterwards.
func (b *Builder) Build() *Netlist {
	n := b.n
	b.n = nil
	tablePool.put(b.tableBuf)
	b.table, b.tableBuf, b.inst = nil, nil, nil
	return n
}

// foldGate applies local Boolean identities.  It returns the replacement
// signal and true when the gate folds away entirely.  nl is consulted to
// detect inverter chains.  Rules that would need to *create* a gate (e.g.
// NAND(x,1) → INV(x)) are left to Simplify, which can emit gates.
func foldGate(k cell.Kind, a, b, c Signal, nl *Netlist) (Signal, bool) {
	isConst := func(s Signal) bool { return s == Const0 || s == Const1 }
	notOf := func(s Signal) (Signal, bool) {
		switch s {
		case Const0:
			return Const1, true
		case Const1:
			return Const0, true
		}
		if int(s) >= nl.NumInputs {
			g := nl.Gates[int(s)-nl.NumInputs]
			if g.Kind == cell.Inv {
				return g.A, true
			}
		}
		return 0, false
	}
	complement := func(x, y Signal) bool {
		if n, ok := notOf(x); ok && n == y {
			return true
		}
		if n, ok := notOf(y); ok && n == x {
			return true
		}
		return false
	}
	switch k {
	case cell.Buf:
		// Instantiate copies a sub-netlist gate for gate, and a loaded
		// library netlist may hold Buf gates.
		return a, true
	case cell.Inv:
		if n, ok := notOf(a); ok {
			return n, true
		}
	case cell.And2:
		switch {
		case a == Const0 || b == Const0 || complement(a, b):
			return Const0, true
		case a == Const1:
			return b, true
		case b == Const1 || a == b:
			return a, true
		}
	case cell.Or2:
		switch {
		case a == Const1 || b == Const1 || complement(a, b):
			return Const1, true
		case a == Const0:
			return b, true
		case b == Const0 || a == b:
			return a, true
		}
	case cell.Nand2:
		if a == Const0 || b == Const0 || complement(a, b) {
			return Const1, true
		}
	case cell.Nor2:
		if a == Const1 || b == Const1 || complement(a, b) {
			return Const0, true
		}
	case cell.Xor2:
		switch {
		case a == b:
			return Const0, true
		case complement(a, b):
			return Const1, true
		case a == Const0:
			return b, true
		case b == Const0:
			return a, true
		}
	case cell.Xnor2:
		switch {
		case a == b:
			return Const1, true
		case complement(a, b):
			return Const0, true
		}
	case cell.Mux2:
		switch {
		case a == Const0:
			return b, true
		case a == Const1:
			return c, true
		case b == c:
			return b, true
		case b == Const0 && c == Const1:
			return a, true
		}
	case cell.AndN2:
		switch {
		case a == Const0 || a == b:
			return Const0, true
		case b == Const0:
			return a, true
		case b == Const1:
			return Const0, true
		case complement(a, b):
			return a, true
		}
	case cell.OrN2:
		switch {
		case a == Const1 || a == b:
			return Const1, true
		case b == Const1:
			return a, true
		case b == Const0:
			return Const1, true
		case complement(a, b):
			return a, true
		}
	}
	// Constant-only gates that slipped through specific rules.
	if isConst(a) && (cell.Arity(k) < 2 || isConst(b)) && (cell.Arity(k) < 3 || isConst(c)) {
		v := evalConstGate(k, a, b, c)
		return v, true
	}
	return 0, false
}

func evalConstGate(k cell.Kind, a, b, c Signal) Signal {
	bit := func(s Signal) uint64 {
		if s == Const1 {
			return 1
		}
		return 0
	}
	var v uint64
	av, bv, cv := bit(a), bit(b), bit(c)
	switch k {
	case cell.Buf:
		v = av
	case cell.Inv:
		v = 1 ^ av
	case cell.And2:
		v = av & bv
	case cell.Or2:
		v = av | bv
	case cell.Nand2:
		v = 1 ^ (av & bv)
	case cell.Nor2:
		v = 1 ^ (av | bv)
	case cell.Xor2:
		v = av ^ bv
	case cell.Xnor2:
		v = 1 ^ av ^ bv
	case cell.Mux2:
		if av != 0 {
			v = cv
		} else {
			v = bv
		}
	case cell.AndN2:
		v = av &^ bv
	case cell.OrN2:
		v = av | (1 ^ bv)
	}
	if v != 0 {
		return Const1
	}
	return Const0
}
