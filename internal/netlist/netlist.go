// Package netlist provides the gate-level circuit representation used
// throughout the autoAx reproduction.
//
// A Netlist is a topologically ordered list of standard cells (see
// internal/cell) over primary inputs and two constant rails.  The package
// offers three capabilities the methodology depends on:
//
//   - fast functional simulation: Compile lowers a netlist gate for gate
//     into a Program, and its one kernel, EvalBlock, evaluates
//     BlockWords×64 independent input vectors per pass using bit-parallel
//     words, which makes exhaustive 8-bit circuit characterization and
//     image-sized QoR simulation tractable on one CPU;
//   - synthesis-style optimization (Simplify): constant propagation, Boolean
//     identity rewriting, structural hashing and dead-cone elimination —
//     the stand-in for the paper's Synopsys Design Compiler runs, and the
//     mechanism that reproduces the paper's observation that a high-error
//     downstream component lets synthesis strip upstream logic;
//   - cost analysis: area, critical-path delay, leakage, and switching-
//     activity-based energy per operation, the activity counted from the
//     gate values of the simulation blocks the caller already ran.
package netlist

import (
	"errors"
	"fmt"

	"autoax/internal/cell"
)

// Signal identifies a node in a netlist: primary input i is Signal(i),
// gate g is Signal(NumInputs+g), and the constant rails are Const0/Const1.
type Signal = int32

// Constant rails usable wherever a Signal is expected.
const (
	Const0 Signal = -1
	Const1 Signal = -2
)

// Gate is one standard-cell instance.  A and B are the data operands; for
// Mux2, A is the select line, B the sel=0 input and C the sel=1 input.
// Single-input cells (Buf, Inv) use only A.
type Gate struct {
	Kind cell.Kind `json:"k"`
	A    Signal    `json:"a"`
	B    Signal    `json:"b,omitempty"`
	C    Signal    `json:"c,omitempty"`
}

// Netlist is a combinational circuit.  Gates must be topologically ordered:
// gate i may only reference inputs, constants, or gates with index < i.
type Netlist struct {
	Name      string   `json:"name,omitempty"`
	NumInputs int      `json:"inputs"`
	Gates     []Gate   `json:"gates"`
	Outputs   []Signal `json:"outputs"`
}

// NumNodes returns the number of addressable non-constant nodes.
func (n *Netlist) NumNodes() int { return n.NumInputs + len(n.Gates) }

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{Name: n.Name, NumInputs: n.NumInputs}
	c.Gates = append([]Gate(nil), n.Gates...)
	c.Outputs = append([]Signal(nil), n.Outputs...)
	return c
}

// Validate checks structural well-formedness: known cell kinds,
// topological order, operand ranges, and output ranges.
func (n *Netlist) Validate() error {
	if n.NumInputs < 0 {
		return errors.New("netlist: negative input count")
	}
	check := func(s Signal, limit int) error {
		if s == Const0 || s == Const1 {
			return nil
		}
		if s < 0 || int(s) >= limit {
			return fmt.Errorf("netlist: signal %d out of range (limit %d)", s, limit)
		}
		return nil
	}
	for i, g := range n.Gates {
		if int(g.Kind) >= cell.NumKinds {
			return fmt.Errorf("netlist: gate %d has unknown kind %d", i, g.Kind)
		}
		limit := n.NumInputs + i
		if err := check(g.A, limit); err != nil {
			return fmt.Errorf("gate %d operand A: %w", i, err)
		}
		ar := cell.Arity(g.Kind)
		if ar >= 2 {
			if err := check(g.B, limit); err != nil {
				return fmt.Errorf("gate %d operand B: %w", i, err)
			}
		}
		if ar >= 3 {
			if err := check(g.C, limit); err != nil {
				return fmt.Errorf("gate %d operand C: %w", i, err)
			}
		}
	}
	for i, o := range n.Outputs {
		if err := check(o, n.NumNodes()); err != nil {
			return fmt.Errorf("output %d: %w", i, err)
		}
	}
	return nil
}

// WordFunc returns a scalar evaluator interpreting the netlist as a function
// over little-endian unsigned integer ports.  inWidths must sum to
// NumInputs.  The evaluator returns the output bits packed into a single
// unsigned integer (output i at bit i) and is intended for tests and
// reference checks; hot paths should run Program.EvalBlock on packed lanes.
func (n *Netlist) WordFunc(inWidths ...int) func(args ...uint64) uint64 {
	total := 0
	for _, w := range inWidths {
		total += w
	}
	if total != n.NumInputs {
		panic(fmt.Sprintf("netlist %q: WordFunc widths sum to %d, want %d", n.Name, total, n.NumInputs))
	}
	const W = BlockWords
	p := Compile(n)
	in := make([]uint64, n.NumInputs*W)
	scratch := make([]uint64, p.NumSlots()*W)
	out := make([]uint64, p.NumOutputs()*W)
	return func(args ...uint64) uint64 {
		if len(args) != len(inWidths) {
			panic("netlist: WordFunc arg count mismatch")
		}
		// The call is lane 0 of the block; the other lanes stay zero.
		pos := 0
		for i, w := range inWidths {
			for k := 0; k < w; k++ {
				in[pos*W] = args[i] >> uint(k) & 1
				pos++
			}
		}
		res := p.EvalBlock(in, scratch, out)
		var r uint64
		for i := 0; i < p.NumOutputs(); i++ {
			r |= (res[i*W] & 1) << uint(i)
		}
		return r
	}
}

// Cost aggregates the hardware metrics of a netlist under the 45 nm-style
// cell model.  Power and Energy are only populated by ActivityCost.
type Cost struct {
	Area      float64 // µm², sum of cell areas
	Delay     float64 // ns, critical combinational path
	Leakage   float64 // nW, sum of cell leakages
	Power     float64 // µW, leakage + switching at NominalClock (needs activity)
	Energy    float64 // fJ per operation (needs activity)
	GateCount int
	Cells     [cell.NumKinds]int
}

// depthPool recycles Analyze's per-node arrival times.
var depthPool slicePool[float64]

// NominalClock is the clock frequency (MHz) assumed when converting
// switching activity into dynamic power.
const NominalClock = 200.0

// Analyze computes area, delay, leakage and cell statistics.  Dead gates
// are included; call Simplify first to obtain post-synthesis numbers.
func (n *Netlist) Analyze() Cost {
	var c Cost
	buf := depthPool.get(n.NumNodes())
	defer depthPool.put(buf)
	depth := *buf
	at := func(s Signal) float64 {
		if s < 0 {
			return 0
		}
		return depth[s]
	}
	base := n.NumInputs
	for i, g := range n.Gates {
		p := cell.Lookup(g.Kind)
		c.Area += p.Area
		c.Leakage += p.Leakage
		c.Cells[g.Kind]++
		d := at(g.A)
		if cell.Arity(g.Kind) >= 2 {
			if db := at(g.B); db > d {
				d = db
			}
		}
		if cell.Arity(g.Kind) >= 3 {
			if dc := at(g.C); dc > d {
				d = dc
			}
		}
		depth[base+i] = d + p.Delay
	}
	for _, o := range n.Outputs {
		if d := at(o); d > c.Delay {
			c.Delay = d
		}
	}
	c.GateCount = len(n.Gates)
	return c
}

// ActivityCost extends Analyze with switching-based power and energy.
// ones[i] holds gate i's ones over lanes simulated lanes, as
// Program.CountOnes accumulates them over the blocks the caller ran.
// Switching activity per gate is estimated as α = 2p(1−p) where p is the
// observed probability of the gate output being 1 — the standard static
// activity approximation — and summed in gate order.  With no lanes it
// is Analyze.
func (n *Netlist) ActivityCost(ones []uint64, lanes int) Cost {
	c := n.Analyze()
	if lanes == 0 {
		return c
	}
	var switchEnergy float64 // fJ per cycle
	for i, g := range n.Gates {
		p := float64(ones[i]) / float64(lanes)
		alpha := 2 * p * (1 - p)
		switchEnergy += alpha * cell.Energy(g.Kind)
	}
	period := 1e3 / NominalClock // ns per cycle
	// fJ/ns = µW, so power (µW) = leakage (nW→µW) + switching energy/period.
	c.Power = c.Leakage*1e-3 + switchEnergy/period
	// Energy per operation (fJ): switching + leakage over one clock period.
	c.Energy = switchEnergy + c.Leakage*period*1e-3
	return c
}
