package accel

import (
	"fmt"

	"autoax/internal/acl"
	"autoax/internal/arith"
	"autoax/internal/netlist"
)

// Configuration assigns one library circuit to every operation node of a
// graph, indexed by position in Graph.OpNodes order.  It is the unit of
// the autoAx design space: the methodology searches over configurations.
type Configuration []*acl.Circuit

// CheckConfiguration verifies that cfg matches g's operation list.
func CheckConfiguration(g *Graph, cfg Configuration) error {
	ops := g.OpNodes()
	if len(cfg) != len(ops) {
		return fmt.Errorf("accel: configuration has %d circuits, graph %s has %d ops", len(cfg), g.Name, len(ops))
	}
	for i, id := range ops {
		if cfg[i] == nil {
			return fmt.Errorf("accel: configuration slot %d (%s) is nil", i, g.Nodes[id].Name)
		}
		if cfg[i].Op != g.Nodes[id].Op {
			return fmt.Errorf("accel: slot %d (%s) wants %s, got %s",
				i, g.Nodes[id].Name, g.Nodes[id].Op, cfg[i].Op)
		}
	}
	return nil
}

// Flatten instantiates cfg's circuits into one combinational netlist for
// the whole accelerator — the paper's "hardware model" of a configuration.
// Inputs are laid out per graph input node (little-endian bits, in Inputs
// order); outputs likewise.  The caller normally passes the result through
// netlist.Simplify, which plays the role of accelerator-level synthesis.
func Flatten(g *Graph, cfg Configuration) (*netlist.Netlist, error) {
	if err := CheckConfiguration(g, cfg); err != nil {
		return nil, err
	}
	totalIn := 0
	for _, id := range g.Inputs {
		totalIn += g.Nodes[id].Width
	}
	b := netlist.NewBuilder(g.Name, totalIn)
	gates := 0
	for _, c := range cfg {
		gates += len(c.Netlist.Gates)
	}
	b.Grow(gates)
	buses := make([]arith.Bus, len(g.Nodes))
	nextBit := 0
	opIdx := 0
	for i, n := range g.Nodes {
		switch n.Kind {
		case NodeInput:
			bus := make(arith.Bus, n.Width)
			for k := range bus {
				bus[k] = b.Input(nextBit)
				nextBit++
			}
			buses[i] = bus
		case NodeConst:
			bus := make(arith.Bus, n.Width)
			for k := range bus {
				if n.Const>>uint(k)&1 != 0 {
					bus[k] = netlist.Const1
				} else {
					bus[k] = netlist.Const0
				}
			}
			buses[i] = bus
		case NodeOp:
			c := cfg[opIdx]
			opIdx++
			wa, wb := n.Op.InWidths()
			in := make(arith.Bus, 0, wa+wb)
			in = append(in, arith.PadBus(buses[n.Args[0]], wa)[:wa]...)
			in = append(in, arith.PadBus(buses[n.Args[1]], wb)[:wb]...)
			buses[i] = b.Instantiate(c.Netlist, in)
		case NodeShiftL:
			bus := make(arith.Bus, n.Shift, n.Width)
			for k := range bus {
				bus[k] = netlist.Const0
			}
			buses[i] = append(bus, buses[n.Args[0]]...)
		case NodeShiftR:
			src := buses[n.Args[0]]
			if n.Shift >= len(src) {
				buses[i] = arith.PadBus(nil, n.Width)
			} else {
				buses[i] = arith.PadBus(src[n.Shift:], n.Width)
			}
		case NodeTrunc:
			buses[i] = arith.PadBus(buses[n.Args[0]], n.Width)[:n.Width]
		case NodeAbs:
			sub := arith.NewAbs(n.Width)
			buses[i] = b.Instantiate(sub, arith.PadBus(buses[n.Args[0]], n.Width)[:n.Width])
		case NodeClamp:
			src := buses[n.Args[0]]
			sub := arith.NewClamp(len(src), n.Width)
			buses[i] = b.Instantiate(sub, src)
		default:
			return nil, fmt.Errorf("accel: unknown node kind %d", n.Kind)
		}
	}
	for _, o := range g.Outputs {
		b.OutputBus(buses[o])
	}
	return b.Build(), nil
}

// ExactConfiguration builds a configuration from exact (zero-error)
// reference circuits: ripple-carry adders/subtractors and Dadda
// multipliers, characterized on the fly.  Useful as a baseline and in
// tests.
func ExactConfiguration(g *Graph, opts acl.Options) (Configuration, error) {
	cache := make(map[acl.Op]*acl.Circuit)
	var cfg Configuration
	for _, id := range g.OpNodes() {
		op := g.Nodes[id].Op
		c, ok := cache[op]
		if !ok {
			var nl *netlist.Netlist
			switch op.Kind {
			case acl.Add:
				nl = arith.NewRippleCarryAdder(op.Width)
			case acl.Sub:
				nl = arith.NewSubtractor(op.Width)
			case acl.Mul:
				nl = arith.NewDaddaMultiplier(op.Width)
			}
			var err error
			c, err = acl.Characterize(nl, op, "exact", opts)
			if err != nil {
				return nil, err
			}
			cache[op] = c
		}
		cfg = append(cfg, c)
	}
	return cfg, nil
}
