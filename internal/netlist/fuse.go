package netlist

// fuse is Compile's one rewrite.  It runs on the freshly lowered program,
// where instruction i writes slot numInputs+i, so slots are
// single-assignment and a slot's producer is found by subtraction: a
// single-use And2/Or2/Xor2 feeding a two-input And2/Or2/Xor2/Xnor2
// merges into one fused opcode (see fuse3), e.g. a full adder's
// XOR(XOR(a,b),cin) sum becomes one opXor3 and its OR(AND(..),..) carry
// fold becomes one opAndOr3.  The merged inner instructions are then
// dropped.  Slot numbering is untouched — a merged inner's slot is simply
// never written — so the NumSlots scratch contract and the
// slotLoad/slotStore bounds invariant are exactly those of the lowered
// stream.
func (p *Program) fuse() {
	n := len(p.op)
	// uses counts consumers per slot (operand positions a gate doesn't
	// read point at the zero rail, so gate-slot counts are exact).
	uses := make([]int32, p.numSlots)
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
		j := int(s) - p.numInputs
		if j < 0 || j >= n || uses[s] != 1 {
			return -1
		}
		return j
	}
	for i := 0; i < n; i++ {
		switch p.op[i] {
		case opAnd2, opOr2, opXor2, opXnor2:
			a, b := p.a[i], p.b[i]
			ia, ib := singleUseGate(a), singleUseGate(b)
			// Try the a operand first, then b (these outers commute).
			if ia < 0 || fuse3[pairKey(p.op[ia], p.op[i])] == 0 {
				if ib >= 0 && fuse3[pairKey(p.op[ib], p.op[i])] != 0 {
					ia, b = ib, a
				} else {
					continue
				}
			}
			// The dying inner's reads of its operands cancel the outer's
			// new reads of them, so uses stays exact.
			p.op[i] = fuse3[pairKey(p.op[ia], p.op[i])]
			p.a[i], p.b[i], p.c[i] = p.a[ia], p.b[ia], b
			dead[ia] = true
		}
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
