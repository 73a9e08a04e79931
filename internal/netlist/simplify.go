package netlist

import (
	"sync"

	"autoax/internal/cell"
)

// Simplify performs synthesis-style logic optimization and returns a new,
// functionally equivalent netlist.  It is the reproduction's stand-in for
// the paper's Synopsys Design Compiler runs:
//
//   - constant propagation and Boolean identity folding,
//   - inverter-chain elimination and inverter absorption into complex cells
//     (AND+INV → ANDN2, INV∘AND → NAND2, ...),
//   - structural hashing (common-subexpression elimination),
//   - dead-cone elimination (gates not feeding any output are dropped).
//
// Dead-cone elimination is what reproduces the paper's Sobel observation:
// when a high-error final subtractor ignores most of its inputs, the adders
// feeding it are stripped and the real area falls far below the sum of
// library areas.
func Simplify(n *Netlist) *Netlist {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	cur := n
	prevArea := totalArea(cur)
	for iter := 0; iter < 8; iter++ {
		next := s.eliminateDead(s.rewriteOnce(cur))
		area := totalArea(next)
		if area >= prevArea && len(next.Gates) >= len(cur.Gates) {
			if iter == 0 {
				return next // still return the cleaned-up copy
			}
			return cur
		}
		cur, prevArea = next, area
	}
	return cur
}

// scratch holds the working arrays of Simplify's passes.  Simplify
// borrows one from scratchPool per call, so the arrays are reused from
// pass to pass and from call to call.
type scratch struct {
	fanout []int32
	mapped []Signal // old signal → new signal
	live   []bool
	stack  []Signal
	// gates backs rewriteOnce's output, which only eliminateDead reads:
	// the next rewrite pass overwrites it.
	gates []Gate
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// totalArea is Analyze's Area alone: the cell areas summed in gate order.
func totalArea(n *Netlist) float64 {
	var a float64
	for _, g := range n.Gates {
		a += cell.Lookup(g.Kind).Area
	}
	return a
}

// rewriteOnce rebuilds the netlist through a folding builder, applying
// gate-creating rewrites that the builder's local folding cannot express.
// The result aliases s.gates and is valid until the next rewriteOnce.
func (s *scratch) rewriteOnce(n *Netlist) *Netlist {
	s.fanout = zeroed(s.fanout, n.NumNodes())
	fanout := s.fanout
	count := func(s Signal) {
		if s >= 0 {
			fanout[s]++
		}
	}
	for _, g := range n.Gates {
		count(g.A)
		if cell.Arity(g.Kind) >= 2 {
			count(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			count(g.C)
		}
	}
	for _, o := range n.Outputs {
		count(o)
	}

	b := NewBuilder(n.Name, n.NumInputs)
	b.n.Gates = s.gates[:0]
	b.Grow(len(n.Gates))
	s.mapped = zeroed(s.mapped, n.NumNodes())
	mapped := s.mapped
	for i := 0; i < n.NumInputs; i++ {
		mapped[i] = Signal(i)
	}
	res := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return mapped[s]
	}
	// invOperand reports whether old signal s is produced by a single-fanout
	// inverter in the original netlist, returning the inverter's (resolved)
	// operand.  Single fanout guarantees absorbing the inverter shrinks the
	// circuit.
	invOperand := func(s Signal) (Signal, bool) {
		if int(s) >= n.NumInputs {
			g := n.Gates[int(s)-n.NumInputs]
			if g.Kind == cell.Inv && fanout[s] == 1 {
				return res(g.A), true
			}
		}
		return 0, false
	}
	for i, g := range n.Gates {
		a := res(g.A)
		var out Signal
		switch g.Kind {
		case cell.Buf:
			out = a
		case cell.Inv:
			// INV over a single-fanout AND/OR/XOR collapses into the
			// complementary cell, which is cheaper than the pair.
			if int(g.A) >= n.NumInputs && fanout[g.A] == 1 {
				ig := n.Gates[int(g.A)-n.NumInputs]
				switch ig.Kind {
				case cell.And2:
					out = b.Nand(res(ig.A), res(ig.B))
				case cell.Or2:
					out = b.Nor(res(ig.A), res(ig.B))
				case cell.Xor2:
					out = b.Xnor(res(ig.A), res(ig.B))
				case cell.Xnor2:
					out = b.Xor(res(ig.A), res(ig.B))
				case cell.Nand2:
					out = b.And(res(ig.A), res(ig.B))
				case cell.Nor2:
					out = b.Or(res(ig.A), res(ig.B))
				}
			}
			if out == 0 && a == Const0 {
				out = Const1
			}
			if out == 0 && a == Const1 {
				out = Const0
			}
			if out == 0 {
				out = b.Not(a)
			}
		case cell.And2, cell.Or2, cell.Xor2, cell.Xnor2, cell.Nand2, cell.Nor2:
			bb := res(g.B)
			// Absorb single-fanout inverters on either operand.
			if x, ok := invOperand(g.A); ok {
				out = absorbedInv(b, g.Kind, bb, x)
			} else if x, ok := invOperand(g.B); ok {
				out = absorbedInv(b, g.Kind, a, x)
			} else {
				switch g.Kind {
				case cell.And2:
					out = b.And(a, bb)
				case cell.Or2:
					out = b.Or(a, bb)
				case cell.Xor2:
					if a == Const1 {
						out = b.Not(bb)
					} else if bb == Const1 {
						out = b.Not(a)
					} else {
						out = b.Xor(a, bb)
					}
				case cell.Xnor2:
					if a == Const0 {
						out = b.Not(bb)
					} else if bb == Const0 {
						out = b.Not(a)
					} else if a == Const1 {
						out = bb
					} else if bb == Const1 {
						out = a
					} else {
						out = b.Xnor(a, bb)
					}
				case cell.Nand2:
					if a == Const1 {
						out = b.Not(bb)
					} else if bb == Const1 {
						out = b.Not(a)
					} else if a == bb {
						out = b.Not(a)
					} else {
						out = b.Nand(a, bb)
					}
				case cell.Nor2:
					if a == Const0 {
						out = b.Not(bb)
					} else if bb == Const0 {
						out = b.Not(a)
					} else if a == bb {
						out = b.Not(a)
					} else {
						out = b.Nor(a, bb)
					}
				}
			}
		case cell.Mux2:
			lo, hi := res(g.B), res(g.C)
			switch {
			case lo == Const0 && hi == Const1:
				out = a
			case lo == Const1 && hi == Const0:
				out = b.Not(a)
			case lo == Const0:
				out = b.And(a, hi)
			case hi == Const1:
				out = b.Or(a, lo)
			case hi == Const0:
				out = b.AndNot(lo, a)
			case lo == Const1:
				out = b.OrNot(hi, a)
			default:
				out = b.Mux(a, lo, hi)
			}
		case cell.AndN2:
			bb := res(g.B)
			if a == Const1 {
				out = b.Not(bb)
			} else {
				out = b.AndNot(a, bb)
			}
		case cell.OrN2:
			bb := res(g.B)
			if a == Const0 {
				out = b.Not(bb)
			} else {
				out = b.OrNot(a, bb)
			}
		}
		mapped[n.NumInputs+i] = out
	}
	for _, o := range n.Outputs {
		b.Output(res(o))
	}
	out := b.Build()
	s.gates = out.Gates
	return out
}

// absorbedInv emits the cell that computes kind(a, NOT x) without a
// standalone inverter.
func absorbedInv(b *Builder, kind cell.Kind, a, x Signal) Signal {
	switch kind {
	case cell.And2:
		return b.AndNot(a, x)
	case cell.Or2:
		return b.OrNot(a, x)
	case cell.Xor2:
		return b.Xnor(a, x)
	case cell.Xnor2:
		return b.Xor(a, x)
	case cell.Nand2:
		// ~(a & ~x) = ~a | x = OrNot(x, a)
		return b.OrNot(x, a)
	case cell.Nor2:
		// ~(a | ~x) = ~a & x = AndNot(x, a)
		return b.AndNot(x, a)
	}
	panic("netlist: absorbedInv on non-absorbing kind")
}

// eliminateDead removes gates outside the transitive fan-in of the outputs
// and compacts gate indices into a newly allocated netlist.
func (s *scratch) eliminateDead(n *Netlist) *Netlist {
	s.live = zeroed(s.live, n.NumNodes())
	live := s.live
	stack := s.stack[:0]
	mark := func(s Signal) {
		if s < 0 || live[s] {
			return
		}
		live[s] = true
		if int(s) >= n.NumInputs {
			stack = append(stack, s)
		}
	}
	for _, o := range n.Outputs {
		mark(o)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := n.Gates[int(s)-n.NumInputs]
		mark(g.A)
		if cell.Arity(g.Kind) >= 2 {
			mark(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			mark(g.C)
		}
	}
	s.stack = stack
	s.mapped = zeroed(s.mapped, n.NumNodes())
	remap := s.mapped
	out := &Netlist{Name: n.Name, NumInputs: n.NumInputs}
	if kept := countTrue(live[n.NumInputs:]); kept > 0 {
		out.Gates = make([]Gate, 0, kept)
	}
	for i := 0; i < n.NumInputs; i++ {
		remap[i] = Signal(i)
	}
	res := func(s Signal) Signal {
		if s < 0 {
			return s
		}
		return remap[s]
	}
	for i, g := range n.Gates {
		id := Signal(n.NumInputs + i)
		if !live[id] {
			continue
		}
		ng := Gate{Kind: g.Kind, A: res(g.A)}
		if cell.Arity(g.Kind) >= 2 {
			ng.B = res(g.B)
		}
		if cell.Arity(g.Kind) >= 3 {
			ng.C = res(g.C)
		}
		remap[id] = Signal(out.NumInputs + len(out.Gates))
		out.Gates = append(out.Gates, ng)
	}
	out.Outputs = make([]Signal, len(n.Outputs))
	for i, o := range n.Outputs {
		out.Outputs[i] = res(o)
	}
	return out
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
