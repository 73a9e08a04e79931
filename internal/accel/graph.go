// Package accel models accelerators as dataflow graphs of arithmetic
// operations, the representation autoAx explores.
//
// A Graph holds typed nodes (inputs, constants, approximable operations,
// and exact wiring/support nodes).  It provides the three capabilities the
// methodology needs:
//
//   - exact software simulation (the paper's C++ model), including an
//     operand-trace hook used to profile per-operation PMFs;
//   - flattening a Configuration — one library circuit per operation —
//     into a single gate-level netlist (the paper's Verilog model), which
//     is then synthesized and simulated by internal/netlist;
//   - structural queries (the operation list that defines the
//     configuration space).
package accel

import (
	"fmt"

	"autoax/internal/acl"
)

// NodeKind classifies graph nodes.
type NodeKind uint8

// Node kinds.  Only NodeOp nodes are approximable; the others are either
// free wiring (shifts, truncation) or small fixed exact circuits
// (absolute value, saturation).
const (
	NodeInput NodeKind = iota
	NodeConst
	NodeOp
	NodeShiftL
	NodeShiftR
	NodeTrunc
	NodeAbs
	NodeClamp
)

// Node is one vertex of the accelerator dataflow graph.
type Node struct {
	Kind  NodeKind
	Name  string
	Width int    // output width in bits
	Op    acl.Op // for NodeOp
	Args  []int  // input node ids
	Shift int    // for NodeShiftL/NodeShiftR
	Const uint64 // for NodeConst
}

// Graph is an accelerator dataflow graph.  Nodes are stored in topological
// order (arguments always precede their users).
type Graph struct {
	Name    string
	Nodes   []Node
	Inputs  []int // ids of NodeInput nodes, in external binding order
	Outputs []int // ids of output nodes, in external binding order
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

func (g *Graph) addNode(n Node) int {
	g.Nodes = append(g.Nodes, n)
	return len(g.Nodes) - 1
}

// Input declares an external input of the given width and returns its id.
func (g *Graph) Input(name string, width int) int {
	id := g.addNode(Node{Kind: NodeInput, Name: name, Width: width})
	g.Inputs = append(g.Inputs, id)
	return id
}

// Constant declares a constant node.  The value is masked to the node
// width so the stored constant always equals the evaluated one (Validate
// rejects constants wider than their node).
func (g *Graph) Constant(name string, width int, value uint64) int {
	if width >= 1 && width <= 63 {
		value &= uint64(1)<<uint(width) - 1
	}
	return g.addNode(Node{Kind: NodeConst, Name: name, Width: width, Const: value})
}

// Op declares an approximable operation node of the given op type over two
// arguments; argument widths must not exceed the operation width (they are
// zero-extended).
func (g *Graph) Op(name string, op acl.Op, a, b int) int {
	return g.addNode(Node{Kind: NodeOp, Name: name, Width: op.OutWidth(), Op: op, Args: []int{a, b}})
}

// Add declares an n-bit adder node.
func (g *Graph) Add(name string, n, a, b int) int {
	return g.Op(name, acl.Op{Kind: acl.Add, Width: n}, a, b)
}

// Sub declares an n-bit subtractor node (two's-complement result).
func (g *Graph) Sub(name string, n, a, b int) int {
	return g.Op(name, acl.Op{Kind: acl.Sub, Width: n}, a, b)
}

// Mul declares an n-bit multiplier node.
func (g *Graph) Mul(name string, n, a, b int) int {
	return g.Op(name, acl.Op{Kind: acl.Mul, Width: n}, a, b)
}

// ShiftL declares a left shift by s bits (free wiring; width grows by s).
func (g *Graph) ShiftL(name string, a, s int) int {
	return g.addNode(Node{Kind: NodeShiftL, Name: name, Width: g.Nodes[a].Width + s, Args: []int{a}, Shift: s})
}

// ShiftR declares a right shift by s bits (free wiring; width shrinks).
func (g *Graph) ShiftR(name string, a, s int) int {
	w := g.Nodes[a].Width - s
	if w < 1 {
		w = 1
	}
	return g.addNode(Node{Kind: NodeShiftR, Name: name, Width: w, Args: []int{a}, Shift: s})
}

// Trunc declares a truncation to the low `width` bits (free wiring) — used
// when the designer knows the dynamic range fits a narrower bus.
func (g *Graph) Trunc(name string, a, width int) int {
	return g.addNode(Node{Kind: NodeTrunc, Name: name, Width: width, Args: []int{a}})
}

// Abs declares an absolute-value node over a two's-complement input; the
// output keeps the input width (as magnitude).
func (g *Graph) Abs(name string, a int) int {
	return g.addNode(Node{Kind: NodeAbs, Name: name, Width: g.Nodes[a].Width, Args: []int{a}})
}

// Clamp declares unsigned saturation to `width` bits.
func (g *Graph) Clamp(name string, a, width int) int {
	return g.addNode(Node{Kind: NodeClamp, Name: name, Width: width, Args: []int{a}})
}

// Output marks a node as an external output.
func (g *Graph) Output(id int) { g.Outputs = append(g.Outputs, id) }

// OpNodes returns the ids of all approximable operation nodes in graph
// order; a Configuration assigns one library circuit per entry.
func (g *Graph) OpNodes() []int {
	var ids []int
	for i, n := range g.Nodes {
		if n.Kind == NodeOp {
			ids = append(ids, i)
		}
	}
	return ids
}

// OpCounts tallies operation instances per type — the data behind the
// paper's Table 1.
func (g *Graph) OpCounts() map[acl.Op]int {
	m := make(map[acl.Op]int)
	for _, id := range g.OpNodes() {
		m[g.Nodes[id].Op]++
	}
	return m
}

// Validate checks the structural invariants every consumer of a Graph
// relies on: topological node order, per-kind argument counts, argument
// widths, width consistency of the derived (wiring) nodes, and the
// input/output registrations.  Graphs built through the builder methods
// satisfy them by construction; graphs decoded from the wire format must
// pass Validate before they reach the compiled exact model (gprog) or
// Flatten, which assume these invariants instead of re-checking them (a
// NodeInput missing from Inputs, for example, would get netlist input
// bits from Flatten but no pixels in the exact model).
func (g *Graph) Validate() error {
	var inputs []int
	for i, n := range g.Nodes {
		for _, a := range n.Args {
			if a < 0 || a >= i {
				return fmt.Errorf("accel: node %d (%s) references node %d out of order", i, n.Name, a)
			}
		}
		if n.Width < 1 || n.Width > 63 {
			return fmt.Errorf("accel: node %s has width %d", n.Name, n.Width)
		}
		switch n.Kind {
		case NodeInput:
			if len(n.Args) != 0 {
				return fmt.Errorf("accel: input node %s must not have args", n.Name)
			}
			inputs = append(inputs, i)
		case NodeConst:
			if len(n.Args) != 0 {
				return fmt.Errorf("accel: const node %s must not have args", n.Name)
			}
			if n.Const&^(uint64(1)<<uint(n.Width)-1) != 0 {
				return fmt.Errorf("accel: const node %s: value %d does not fit %d bits", n.Name, n.Const, n.Width)
			}
		case NodeOp:
			if len(n.Args) != 2 {
				return fmt.Errorf("accel: op node %s needs 2 args", n.Name)
			}
			for _, a := range n.Args {
				if g.Nodes[a].Width > n.Op.Width {
					return fmt.Errorf("accel: node %s: arg %s is %d bits, op %s takes %d",
						n.Name, g.Nodes[a].Name, g.Nodes[a].Width, n.Op, n.Op.Width)
				}
			}
			// gprog masks by the declared width and Flatten sizes the
			// instantiated bus by it, so it must be the true operation
			// output width.
			if n.Width != n.Op.OutWidth() {
				return fmt.Errorf("accel: op node %s declares width %d, op %s produces %d",
					n.Name, n.Width, n.Op, n.Op.OutWidth())
			}
		case NodeShiftL, NodeShiftR, NodeTrunc, NodeAbs, NodeClamp:
			if len(n.Args) != 1 {
				return fmt.Errorf("accel: node %s needs 1 arg", n.Name)
			}
			// The wiring nodes must declare the width the evaluation
			// semantics actually produce; a lying width would let a value
			// wider than declared flow into an operation node, where the
			// exact software model (unmasked operands) and the flattened
			// netlist (bus sliced to the declared width) would diverge.
			argW := g.Nodes[n.Args[0]].Width
			switch n.Kind {
			case NodeShiftL:
				if n.Shift < 0 || n.Width != argW+n.Shift {
					return fmt.Errorf("accel: node %s: shl by %d of %d-bit arg must be %d bits, declared %d",
						n.Name, n.Shift, argW, argW+n.Shift, n.Width)
				}
			case NodeShiftR:
				want := argW - n.Shift
				if want < 1 {
					want = 1
				}
				if n.Shift < 0 || n.Width != want {
					return fmt.Errorf("accel: node %s: shr by %d of %d-bit arg must be %d bits, declared %d",
						n.Name, n.Shift, argW, want, n.Width)
				}
			case NodeAbs:
				if n.Width != argW {
					return fmt.Errorf("accel: node %s: abs keeps its %d-bit arg width, declared %d",
						n.Name, argW, n.Width)
				}
			}
		default:
			return fmt.Errorf("accel: node %s has unknown kind %d", n.Name, n.Kind)
		}
	}
	// Inputs must list exactly the NodeInput nodes in node order: the
	// exact model (gprog) and the evaluator's input planes bind values in
	// Inputs order, while Flatten numbers netlist input bits in node
	// order, so any other registration would silently misbind the two.
	if len(g.Inputs) != len(inputs) {
		return fmt.Errorf("accel: graph %s registers %d inputs but has %d input nodes",
			g.Name, len(g.Inputs), len(inputs))
	}
	for i, id := range inputs {
		if g.Inputs[i] != id {
			return fmt.Errorf("accel: graph %s: Inputs[%d] is node %d, want input node %d (node order)",
				g.Name, i, g.Inputs[i], id)
		}
	}
	seenOut := make(map[int]bool, len(g.Outputs))
	for _, o := range g.Outputs {
		if o < 0 || o >= len(g.Nodes) {
			return fmt.Errorf("accel: output id %d out of range", o)
		}
		if seenOut[o] {
			return fmt.Errorf("accel: output id %d registered twice", o)
		}
		seenOut[o] = true
	}
	return nil
}
