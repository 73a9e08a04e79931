// Package netlist provides the gate-level circuit representation used
// throughout the autoAx reproduction.
//
// A Netlist is a topologically ordered list of standard cells (see
// internal/cell) over primary inputs and two constant rails.  The package
// offers three capabilities the methodology depends on:
//
//   - fast functional simulation: 64 independent input vectors are evaluated
//     per pass using bit-parallel words, which makes exhaustive 8-bit circuit
//     characterization and image-sized QoR simulation tractable on one CPU;
//   - synthesis-style optimization (Simplify): constant propagation, Boolean
//     identity rewriting, structural hashing and dead-cone elimination —
//     the stand-in for the paper's Synopsys Design Compiler runs, and the
//     mechanism that reproduces the paper's observation that a high-error
//     downstream component lets synthesis strip upstream logic;
//   - cost analysis: area, critical-path delay, leakage, and switching-
//     activity-based energy per operation.
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

// Validate checks structural well-formedness: topological order, operand
// ranges, and output ranges.
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

// Eval evaluates the netlist on 64 parallel input vectors.  inputs[i] packs
// the 64 lane values of primary input i (lane l in bit l).  scratch, when
// non-nil and of length ≥ NumNodes, avoids an allocation.  The returned
// slice holds one packed word per output and aliases outBuf when outBuf has
// sufficient capacity.
func (n *Netlist) Eval(inputs []uint64, scratch []uint64, outBuf []uint64) []uint64 {
	if len(inputs) != n.NumInputs {
		panic(fmt.Sprintf("netlist %q: Eval got %d input words, want %d", n.Name, len(inputs), n.NumInputs))
	}
	vals := scratch
	if len(vals) < n.NumNodes() {
		vals = make([]uint64, n.NumNodes())
	}
	copy(vals, inputs)
	base := n.NumInputs
	fetch := func(s Signal) uint64 {
		switch s {
		case Const0:
			return 0
		case Const1:
			return ^uint64(0)
		}
		return vals[s]
	}
	for i, g := range n.Gates {
		a := fetch(g.A)
		var v uint64
		switch g.Kind {
		case cell.Buf:
			v = a
		case cell.Inv:
			v = ^a
		case cell.And2:
			v = a & fetch(g.B)
		case cell.Or2:
			v = a | fetch(g.B)
		case cell.Nand2:
			v = ^(a & fetch(g.B))
		case cell.Nor2:
			v = ^(a | fetch(g.B))
		case cell.Xor2:
			v = a ^ fetch(g.B)
		case cell.Xnor2:
			v = ^(a ^ fetch(g.B))
		case cell.Mux2:
			v = (fetch(g.B) &^ a) | (fetch(g.C) & a)
		case cell.AndN2:
			v = a &^ fetch(g.B)
		case cell.OrN2:
			v = a | ^fetch(g.B)
		default:
			panic(fmt.Sprintf("netlist: unknown gate kind %v", g.Kind))
		}
		vals[base+i] = v
	}
	if cap(outBuf) < len(n.Outputs) {
		outBuf = make([]uint64, len(n.Outputs))
	}
	outBuf = outBuf[:len(n.Outputs)]
	for i, o := range n.Outputs {
		outBuf[i] = fetch(o)
	}
	return outBuf
}

// Evaluator wraps a compiled program of the netlist with reusable buffers
// for repeated Eval calls.  It is not safe for concurrent use; create one
// per goroutine (clones may share the immutable compiled program via
// Program directly).
type Evaluator struct {
	p       *Program
	scratch []uint64
	out     []uint64
}

// NewEvaluator compiles the netlist and returns an evaluator with
// preallocated buffers.
func NewEvaluator(n *Netlist) *Evaluator {
	p := Compile(n)
	return &Evaluator{
		p:       p,
		scratch: make([]uint64, p.NumSlots()),
		out:     make([]uint64, p.NumOutputs()),
	}
}

// Eval evaluates 64 parallel vectors; the returned slice is reused across
// calls and must not be retained.
func (e *Evaluator) Eval(inputs []uint64) []uint64 {
	return e.p.Eval(inputs, e.scratch, e.out)
}

// WordFunc returns a scalar evaluator interpreting the netlist as a function
// over little-endian unsigned integer ports.  inWidths must sum to
// NumInputs.  The evaluator returns the output bits packed into a single
// unsigned integer (output i at bit i) and is intended for tests and
// reference checks; hot paths should use Eval with packed lanes.
func (n *Netlist) WordFunc(inWidths ...int) func(args ...uint64) uint64 {
	total := 0
	for _, w := range inWidths {
		total += w
	}
	if total != n.NumInputs {
		panic(fmt.Sprintf("netlist %q: WordFunc widths sum to %d, want %d", n.Name, total, n.NumInputs))
	}
	ev := NewEvaluator(n)
	in := make([]uint64, n.NumInputs)
	return func(args ...uint64) uint64 {
		if len(args) != len(inWidths) {
			panic("netlist: WordFunc arg count mismatch")
		}
		pos := 0
		for i, w := range inWidths {
			for k := 0; k < w; k++ {
				if (args[i]>>uint(k))&1 != 0 {
					in[pos] = ^uint64(0)
				} else {
					in[pos] = 0
				}
				pos++
			}
		}
		out := ev.Eval(in)
		var r uint64
		for i, w := range out {
			r |= (w & 1) << uint(i)
		}
		return r
	}
}

// Cost aggregates the hardware metrics of a netlist under the 45 nm-style
// cell model.  Energy is only populated by AnalyzeActivity.
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
	depth := depthPool.get(n.NumNodes())
	defer depthPool.put(depth)
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

// AnalyzeActivity extends Analyze with switching-based power and energy.
// samples supplies packed input words: samples[j] is one batch of 64 input
// vectors laid out like Eval's inputs argument; laneCounts[j] says how many
// of the 64 lanes in batch j are valid.  Switching activity per gate is
// estimated as α = 2p(1−p) where p is the observed probability of the gate
// output being 1 — the standard static activity approximation.
func (n *Netlist) AnalyzeActivity(samples [][]uint64, laneCounts []int) Cost {
	if len(samples) == 0 {
		return n.Analyze()
	}
	return n.AnalyzeActivityProgram(Compile(n), samples, laneCounts)
}

// AnalyzeActivityProgram is AnalyzeActivity over an already-compiled
// program of this netlist, so hot paths that simulated through p don't
// lower the netlist a second time.
func (n *Netlist) AnalyzeActivityProgram(p *Program, samples [][]uint64, laneCounts []int) Cost {
	c := n.Analyze()
	if len(samples) == 0 {
		return c
	}
	ones := make([]int64, len(n.Gates))
	var total int64
	vals := make([]uint64, p.NumSlots())
	out := make([]uint64, p.NumOutputs())
	for j, in := range samples {
		lanes := 64
		if laneCounts != nil {
			lanes = laneCounts[j]
		}
		mask := ^uint64(0)
		if lanes < 64 {
			mask = (uint64(1) << uint(lanes)) - 1
		}
		p.Eval(in, vals, out)
		p.countGateOnes(vals, mask, ones)
		total += int64(lanes)
	}
	var switchEnergy float64 // fJ per cycle
	for i, g := range n.Gates {
		p := float64(ones[i]) / float64(total)
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
