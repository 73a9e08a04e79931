package netlist

import (
	"fmt"
	"math/bits"
	"unsafe"

	"autoax/internal/cell"
)

// slotLoad / slotStore access value slot s of a buffer through its base
// pointer without a bounds check.  Safety rests on one local invariant,
// established by Compile (the only producer of Program values) and pinned
// by EvalBlock before the loop: every operand and destination slot is
// < NumSlots, and the buffer holds NumSlots×BlockWords elements.  The
// instruction loop is the hottest code in the repository; the three
// checks these helpers avoid per gate are worth ~10% end to end.
func slotLoad(base unsafe.Pointer, s uintptr) uint64 {
	return *(*uint64)(unsafe.Add(base, s*8))
}

func slotStore(base unsafe.Pointer, s uintptr, v uint64) {
	*(*uint64)(unsafe.Add(base, s*8)) = v
}

// opcode is an instruction of a compiled Program: one per cell kind,
// declared in cell.Kind order, so gate i lowers to opcode(g.Kind).
type opcode uint8

const (
	opBuf opcode = iota
	opInv
	opAnd2
	opOr2
	opNand2
	opNor2
	opXor2
	opXnor2
	opMux2
	opAndN2
	opOrN2
)

// BlockWords is the block width of EvalBlock: every value slot holds 8
// packed words, so one instruction decode drives 512 lanes through the
// unrolled kernel.
const BlockWords = 8

// Program is a netlist lowered into a contiguous instruction stream for
// fast repeated simulation.  Opcodes and operand slots are stored
// struct-of-arrays (independent sequential streams the hardware
// prefetcher tracks perfectly), and output slots are pre-resolved, so
// evaluation has no per-operand branches.  Constant operands and outputs
// read two rail slots past the nodes, which EvalBlock fills with all-0
// and all-1 words before the instruction loop.
//
// Value slots keep the netlist's numbering: input i is slot i and gate i,
// lowered to instruction i, writes slot NumInputs+i.  So after EvalBlock
// the caller's scratch holds every gate's value, and switching activity
// is counted from the pass that simulated the lanes (see CountOnes).
// Compile does no logic optimization of its own: Simplify runs before
// every compile on the evaluation and characterization paths (library
// circuits are stored simplified) and leaves no constant operand, Buf,
// foldable Inv or dead gate, and that is what keeps programs short.
//
// A Program is immutable after Compile and safe for concurrent use as long
// as every goroutine supplies its own scratch and output buffers —
// concurrent evaluators share one compiled program.
type Program struct {
	numInputs int
	numOuts   int
	numSlots  int // scratch slots per word, rails included

	op      []opcode
	a, b, c []int32 // operand slots; unused operands point at the zero rail
	outs    []int32 // pre-resolved output slots (may be the rail slots)
}

// NumInputs returns the number of primary inputs.
func (p *Program) NumInputs() int { return p.numInputs }

// NumOutputs returns the number of outputs.
func (p *Program) NumOutputs() int { return p.numOuts }

// NumSlots returns the value slots per block word: one per source-netlist
// node plus the two constant-rail slots.
func (p *Program) NumSlots() int { return p.numSlots }

// rail0 and rail1 are the value slots holding the constant rails.
func (p *Program) rail0() int32 { return int32(p.numSlots - 2) }
func (p *Program) rail1() int32 { return int32(p.numSlots - 1) }

// Compile lowers a valid netlist (see Validate) gate for gate: gate i
// becomes instruction i with opcode(g.Kind) and destination slot
// NumInputs+i, and a Const0/Const1 operand or output reads its rail slot.
// The program's outputs are bit-identical to the netlist's on every lane.
func Compile(n *Netlist) *Program {
	p := &Program{
		numInputs: n.NumInputs,
		numOuts:   len(n.Outputs),
		numSlots:  n.NumInputs + len(n.Gates) + 2,
		op:        make([]opcode, len(n.Gates)),
		a:         make([]int32, len(n.Gates)),
		b:         make([]int32, len(n.Gates)),
		c:         make([]int32, len(n.Gates)),
		outs:      make([]int32, len(n.Outputs)),
	}
	slot := func(s Signal) int32 {
		switch s {
		case Const0:
			return p.rail0()
		case Const1:
			return p.rail1()
		}
		return int32(s)
	}
	for i, g := range n.Gates {
		p.op[i] = opcode(g.Kind)
		// Unused operand positions point at the zero rail so the uniform
		// operand loads in EvalBlock are always in bounds.
		p.a[i], p.b[i], p.c[i] = slot(g.A), p.rail0(), p.rail0()
		switch cell.Arity(g.Kind) {
		case 2:
			p.b[i] = slot(g.B)
		case 3:
			p.b[i], p.c[i] = slot(g.B), slot(g.C)
		}
	}
	for i, o := range n.Outputs {
		p.outs[i] = slot(o)
	}
	return p
}

// EvalBlock evaluates BlockWords×64 parallel vectors in one
// instruction-decode pass: input i occupies
// inputs[i*BlockWords : (i+1)*BlockWords] and output j lands in
// outBuf[j*BlockWords : (j+1)*BlockWords], the layout PackBitsBlock
// produces.  Decoding one instruction drives BlockWords independent word
// operations, so image-sized batches amortize dispatch and expose
// instruction-level parallelism.  scratch, when of length
// ≥ NumSlots()*BlockWords, avoids an allocation and afterwards holds
// every node's words (slot s at [s*BlockWords, (s+1)*BlockWords)), which
// CountOnes reads; the returned slice aliases outBuf when it has
// sufficient capacity.
func (p *Program) EvalBlock(inputs []uint64, scratch []uint64, outBuf []uint64) []uint64 {
	const W = BlockWords
	if len(inputs) != p.numInputs*W {
		panic(fmt.Sprintf("netlist: program input block has %d words, want %d", len(inputs), p.numInputs*W))
	}
	vals := scratch
	if len(vals) < p.numSlots*W {
		vals = make([]uint64, p.numSlots*W)
	}
	// Exactly NumSlots×BlockWords: the length that pins the
	// slotLoad/slotStore invariant.
	vals = vals[:p.numSlots*W]
	copy(vals, inputs)
	r0, r1 := int(p.rail0())*W, int(p.rail1())*W
	for k := 0; k < W; k++ {
		vals[r0+k] = 0
		vals[r1+k] = ^uint64(0)
	}
	p.evalBlock(vals)
	if cap(outBuf) < p.numOuts*W {
		outBuf = make([]uint64, p.numOuts*W)
	}
	outBuf = outBuf[:p.numOuts*W]
	for i, o := range p.outs {
		copy(outBuf[i*W:(i+1)*W], vals[int(o)*W:int(o)*W+W])
	}
	return outBuf
}

// CountOnes adds to ones[i] the set bits of gate i's words in scratch,
// as EvalBlock left them, over the block's first lanes lanes: each word
// is masked to its valid lanes, counted from lane 0.  Summed over blocks,
// ones and the lane total are what Netlist.ActivityCost turns into
// switching power.  ones holds one count per gate.
func (p *Program) CountOnes(scratch []uint64, lanes int, ones []uint64) {
	const W = BlockWords
	var masks [W]uint64
	for w := range masks {
		masks[w] = ^uint64(0) >> uint(64-min(max(lanes-w*64, 0), 64))
	}
	gates := scratch[p.numInputs*W : (p.numInputs+len(p.op))*W]
	ones = ones[:len(p.op)]
	for i := range ones {
		n := 0
		for w, v := range gates[i*W : i*W+W] {
			n += bits.OnesCount64(v & masks[w])
		}
		ones[i] += uint64(n)
	}
}

// evalBlock is the unrolled instruction loop: per instruction decode, one
// straight-line body computes the BlockWords words of the destination
// slot, NumInputs+i for instruction i.  The eight word operations are
// independent, so they fill the CPU's execution ports while the single
// dispatch cost is paid once.  The slotLoad/slotStore invariant is pinned
// by EvalBlock (len(vals) == NumSlots×BlockWords and every slot <
// NumSlots).
func (p *Program) evalBlock(vals []uint64) {
	const wi = uintptr(BlockWords)
	vp := unsafe.Pointer(&vals[0])
	code := p.op
	pa, pb, pc := p.a[:len(code)], p.b[:len(code)], p.c[:len(code)]
	do := uintptr(p.numInputs) * wi
	for i := 0; i < len(code); i, do = i+1, do+wi {
		ao := uintptr(pa[i]) * wi
		bo := uintptr(pb[i]) * wi
		op := code[i]
		a0, a1, a2, a3 := slotLoad(vp, ao), slotLoad(vp, ao+1), slotLoad(vp, ao+2), slotLoad(vp, ao+3)
		a4, a5, a6, a7 := slotLoad(vp, ao+4), slotLoad(vp, ao+5), slotLoad(vp, ao+6), slotLoad(vp, ao+7)
		b0, b1, b2, b3 := slotLoad(vp, bo), slotLoad(vp, bo+1), slotLoad(vp, bo+2), slotLoad(vp, bo+3)
		b4, b5, b6, b7 := slotLoad(vp, bo+4), slotLoad(vp, bo+5), slotLoad(vp, bo+6), slotLoad(vp, bo+7)
		var v0, v1, v2, v3, v4, v5, v6, v7 uint64
		switch op {
		case opBuf:
			v0, v1, v2, v3, v4, v5, v6, v7 = a0, a1, a2, a3, a4, a5, a6, a7
		case opInv:
			v0, v1, v2, v3, v4, v5, v6, v7 = ^a0, ^a1, ^a2, ^a3, ^a4, ^a5, ^a6, ^a7
		case opAnd2:
			v0, v1, v2, v3 = a0&b0, a1&b1, a2&b2, a3&b3
			v4, v5, v6, v7 = a4&b4, a5&b5, a6&b6, a7&b7
		case opOr2:
			v0, v1, v2, v3 = a0|b0, a1|b1, a2|b2, a3|b3
			v4, v5, v6, v7 = a4|b4, a5|b5, a6|b6, a7|b7
		case opNand2:
			v0, v1, v2, v3 = ^(a0 & b0), ^(a1 & b1), ^(a2 & b2), ^(a3 & b3)
			v4, v5, v6, v7 = ^(a4 & b4), ^(a5 & b5), ^(a6 & b6), ^(a7 & b7)
		case opNor2:
			v0, v1, v2, v3 = ^(a0 | b0), ^(a1 | b1), ^(a2 | b2), ^(a3 | b3)
			v4, v5, v6, v7 = ^(a4 | b4), ^(a5 | b5), ^(a6 | b6), ^(a7 | b7)
		case opXor2:
			v0, v1, v2, v3 = a0^b0, a1^b1, a2^b2, a3^b3
			v4, v5, v6, v7 = a4^b4, a5^b5, a6^b6, a7^b7
		case opXnor2:
			v0, v1, v2, v3 = ^(a0 ^ b0), ^(a1 ^ b1), ^(a2 ^ b2), ^(a3 ^ b3)
			v4, v5, v6, v7 = ^(a4 ^ b4), ^(a5 ^ b5), ^(a6 ^ b6), ^(a7 ^ b7)
		case opMux2:
			co := uintptr(pc[i]) * wi
			v0 = (b0 &^ a0) | (slotLoad(vp, co) & a0)
			v1 = (b1 &^ a1) | (slotLoad(vp, co+1) & a1)
			v2 = (b2 &^ a2) | (slotLoad(vp, co+2) & a2)
			v3 = (b3 &^ a3) | (slotLoad(vp, co+3) & a3)
			v4 = (b4 &^ a4) | (slotLoad(vp, co+4) & a4)
			v5 = (b5 &^ a5) | (slotLoad(vp, co+5) & a5)
			v6 = (b6 &^ a6) | (slotLoad(vp, co+6) & a6)
			v7 = (b7 &^ a7) | (slotLoad(vp, co+7) & a7)
		case opAndN2:
			v0, v1, v2, v3 = a0&^b0, a1&^b1, a2&^b2, a3&^b3
			v4, v5, v6, v7 = a4&^b4, a5&^b5, a6&^b6, a7&^b7
		case opOrN2:
			v0, v1, v2, v3 = a0|^b0, a1|^b1, a2|^b2, a3|^b3
			v4, v5, v6, v7 = a4|^b4, a5|^b5, a6|^b6, a7|^b7
		}
		slotStore(vp, do, v0)
		slotStore(vp, do+1, v1)
		slotStore(vp, do+2, v2)
		slotStore(vp, do+3, v3)
		slotStore(vp, do+4, v4)
		slotStore(vp, do+5, v5)
		slotStore(vp, do+6, v6)
		slotStore(vp, do+7, v7)
	}
}
