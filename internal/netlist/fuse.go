package netlist

// fuse is Compile's optimization pass.  It runs on the freshly lowered
// program — where instruction i writes slot numInputs+i, so slots are
// single-assignment — and rewrites the stream in place:
//
//   - Buf elision: a Buf's consumers read its operand directly.
//   - Inv folding: an Inv over a single-use gate flips the producer to
//     its complemented opcode (And2→Nand2, Xor3→Xnor3, …) instead of
//     spending an instruction; Inv over a single-use Inv cancels.
//   - Three-input fusion: a single-use And2/Or2/Xor2 feeding a
//     two-input And2/Or2/Xor2/Xnor2 merges into one fused opcode, e.g.
//     a full adder's XOR(XOR(a,b),cin) sum becomes one opXor3 and its
//     OR(AND(..),..) carry fold becomes one opAndOr3.
//
// A trailing dead-store pass drops instructions (including gates the
// source netlist never consumed) whose slots no live instruction or
// output reads.  Slot numbering is untouched — eliminated slots are
// simply never written — so the NumSlots scratch contract and the
// slotLoad/slotStore bounds invariant are exactly those of the lowered
// stream.  Use counts only ever over-approximate during rewriting
// (a missed fusion costs an instruction, never correctness).
func (p *Program) fuse() {
	n := len(p.op)
	if n == 0 {
		return
	}
	numSlots := p.numSlots

	// repl aliases a slot to the slot that now carries its value
	// (identity by default), with path compression.
	repl := make([]int32, numSlots)
	for i := range repl {
		repl[i] = int32(i)
	}
	var res func(s int32) int32
	res = func(s int32) int32 {
		if repl[s] != s {
			repl[s] = res(repl[s])
		}
		return repl[s]
	}

	// prod maps a gate slot to its producing instruction; uses counts
	// consumers per slot (operand positions a Buf/Const doesn't read
	// point at the zero rail, so gate-slot counts stay exact).
	prod := func(s int32) int {
		if int(s) >= p.numInputs && int(s) < numSlots-2 {
			return int(s) - p.numInputs
		}
		return -1
	}
	uses := make([]int32, numSlots)
	for i := 0; i < n; i++ {
		uses[p.a[i]]++
		uses[p.b[i]]++
		uses[p.c[i]]++
	}
	for _, o := range p.outs {
		uses[o]++
	}

	dead := make([]bool, n)
	singleUseGate := func(s int32) int {
		j := prod(s)
		if j < 0 || dead[j] || uses[s] != 1 {
			return -1
		}
		return j
	}

	for i := 0; i < n; i++ {
		a := res(p.a[i])
		b := res(p.b[i])
		c := res(p.c[i])
		p.a[i], p.b[i], p.c[i] = a, b, c
		switch p.op[i] {
		// Use-count updates below are exact: each rewrite kills exactly
		// one instruction whose own operand reads stop counting, while
		// the killed slot's consumers transfer to the surviving slot.
		case opBuf:
			repl[p.dst[i]] = a
			uses[a] += uses[p.dst[i]] - 1
			dead[i] = true
			continue
		case opInv:
			if j := singleUseGate(a); j >= 0 {
				if inv, ok := complemented[p.op[j]]; ok {
					if inv == opBuf { // Inv of Inv cancels
						t := p.a[j]
						repl[p.dst[i]] = t
						uses[t] += uses[p.dst[i]] - 1
					} else {
						p.op[j] = inv
						repl[p.dst[i]] = p.dst[j]
						uses[p.dst[j]] = uses[p.dst[i]]
					}
					dead[i] = true
					continue
				}
			}
		case opAnd2, opOr2, opXor2, opXnor2:
			ia, ib := singleUseGate(a), singleUseGate(b)
			// Try the a operand first, then b (these outers commute).
			if ia < 0 || fuse3[pairKey(p.op[ia], p.op[i])] == 0 {
				if ib >= 0 && fuse3[pairKey(p.op[ib], p.op[i])] != 0 {
					ia, a, b = ib, b, a
				} else {
					ia = -1
				}
			}
			if ia >= 0 {
				// The dying inner's reads of its operands cancel the
				// outer's new reads of them, so uses is already exact.
				p.op[i] = fuse3[pairKey(p.op[ia], p.op[i])]
				p.a[i], p.b[i], p.c[i] = p.a[ia], p.b[ia], b
				dead[ia] = true
			}
		}
	}
	for i := range p.outs {
		p.outs[i] = res(p.outs[i])
	}

	// Dead-store elimination, backward: keep an instruction only if its
	// slot is read by a kept instruction or an output.
	live := make([]bool, numSlots)
	for _, o := range p.outs {
		live[o] = true
	}
	kept := 0
	for i := n - 1; i >= 0; i-- {
		if dead[i] || !live[p.dst[i]] {
			dead[i] = true
			continue
		}
		live[p.a[i]], live[p.b[i]], live[p.c[i]] = true, true, true
		kept++
	}
	if kept == n {
		return
	}
	w := 0
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		p.op[w], p.a[w], p.b[w], p.c[w], p.dst[w] = p.op[i], p.a[i], p.b[i], p.c[i], p.dst[i]
		w++
	}
	p.op = p.op[:w]
	p.a, p.b, p.c, p.dst = p.a[:w], p.b[:w], p.c[:w], p.dst[:w]
}

// complemented maps an opcode to the opcode computing its bitwise
// complement with the same operands, where one exists.  opBuf as a value
// marks the Inv-of-Inv cancellation (the complement of Inv is Buf).
// AndN2/OrN2 complements exist but swap operands (^(a&^b) = b|^a), which
// the table can't express — folding those is left on the floor.
var complemented = map[opcode]opcode{
	opAnd2:   opNand2,
	opNand2:  opAnd2,
	opOr2:    opNor2,
	opNor2:   opOr2,
	opXor2:   opXnor2,
	opXnor2:  opXor2,
	opInv:    opBuf,
	opConst0: opConst1,
	opConst1: opConst0,
	opXor3:   opXnor3,
	opXnor3:  opXor3,
}

// pairKey indexes fuse3 by (inner, outer) opcode pair.
func pairKey(inner, outer opcode) int {
	return int(inner)*int(opcodeCount) + int(outer)
}

// fuse3 maps an (inner, outer) two-input pair to its fused three-input
// opcode: the fused op computes outer(inner(a, b), c) with (a, b) the
// inner gate's operands and c the outer gate's other operand.  A zero
// entry (opBuf is never a fusion result) means no fusion.
var fuse3 = buildFuse3()

func buildFuse3() []opcode {
	t := make([]opcode, int(opcodeCount)*int(opcodeCount))
	t[pairKey(opXor2, opXor2)] = opXor3
	t[pairKey(opXor2, opXnor2)] = opXnor3
	t[pairKey(opAnd2, opAnd2)] = opAnd3
	t[pairKey(opOr2, opOr2)] = opOr3
	t[pairKey(opAnd2, opOr2)] = opAndOr3
	t[pairKey(opOr2, opAnd2)] = opOrAnd3
	t[pairKey(opXor2, opAnd2)] = opXorAnd3
	t[pairKey(opXor2, opOr2)] = opXorOr3
	t[pairKey(opAnd2, opXor2)] = opAndXor3
	return t
}
