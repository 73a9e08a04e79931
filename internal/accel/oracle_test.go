package accel

import "fmt"

// ActivityBatches exposes activityBatches to the external test package.
const ActivityBatches = activityBatches

// EvalExact is the frozen exact software model, one input vector at a
// time: in holds one value per external input (in Inputs order), and the
// result holds one value per output.  Production evaluates the exact
// model through the compiled graph program (gprog); this node-by-node
// walker is the oracle that program, Flatten and the wire format are
// checked against.  The graph must pass Validate.
func (g *Graph) EvalExact(in []uint64) []uint64 {
	vals := g.EvalExactNodes(in)
	out := make([]uint64, len(g.Outputs))
	for i, o := range g.Outputs {
		out[i] = vals[o]
	}
	return out
}

// EvalExactNodes is EvalExact returning the value of every node, in node
// order: the operands it shows are the ones Profile counts.
func (g *Graph) EvalExactNodes(in []uint64) []uint64 {
	if len(in) != len(g.Inputs) {
		panic(fmt.Sprintf("accel %s: EvalExact got %d inputs, want %d", g.Name, len(in), len(g.Inputs)))
	}
	vals := make([]uint64, len(g.Nodes))
	nextIn := 0
	for i, n := range g.Nodes {
		switch n.Kind {
		case NodeInput:
			vals[i] = in[nextIn] & (uint64(1)<<uint(n.Width) - 1)
			nextIn++
		case NodeConst:
			vals[i] = n.Const & (uint64(1)<<uint(n.Width) - 1)
		case NodeOp:
			vals[i] = n.Op.Exact(vals[n.Args[0]], vals[n.Args[1]])
		case NodeShiftL:
			vals[i] = vals[n.Args[0]] << uint(n.Shift)
		case NodeShiftR:
			vals[i] = vals[n.Args[0]] >> uint(n.Shift)
		case NodeTrunc:
			vals[i] = vals[n.Args[0]] & (uint64(1)<<uint(n.Width) - 1)
		case NodeAbs:
			w := uint(n.Width)
			v := vals[n.Args[0]]
			if v>>(w-1) != 0 { // negative two's complement
				v = (^v + 1) & (uint64(1)<<w - 1)
			}
			vals[i] = v
		case NodeClamp:
			v := vals[n.Args[0]]
			limit := uint64(1)<<uint(n.Width) - 1
			if v > limit {
				v = limit
			}
			vals[i] = v
		}
	}
	return vals
}
