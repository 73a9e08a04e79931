package netlist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"autoax/internal/cell"
)

// Eval is the reference interpreter: it evaluates the netlist on 64
// parallel input vectors, gate by gate.  inputs[i] packs the 64 lane
// values of primary input i (lane l in bit l).  scratch, when non-nil and
// of length ≥ NumNodes, avoids an allocation and afterwards holds every
// node's word.  The returned slice holds one packed word per output and
// aliases outBuf when outBuf has sufficient capacity.  Program.EvalBlock
// and AnalyzeActivity are pinned against it.
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

// oracleAnalyzeActivity is the frozen per-batch activity analysis: each
// 64-lane batch runs through the interpreter, the ones of every gate's
// word are counted under the batch's lane mask, and α = 2p(1−p) is
// summed over the gates in order.
func oracleAnalyzeActivity(n *Netlist, samples [][]uint64, laneCounts []int) Cost {
	c := n.Analyze()
	if len(samples) == 0 {
		return c
	}
	ones := make([]int64, len(n.Gates))
	var total int64
	vals := make([]uint64, n.NumNodes())
	for j, in := range samples {
		lanes := 64
		if laneCounts != nil {
			lanes = laneCounts[j]
		}
		mask := ^uint64(0)
		if lanes < 64 {
			mask = (uint64(1) << uint(lanes)) - 1
		}
		n.Eval(in, vals, nil)
		for i := range ones {
			ones[i] += int64(bits.OnesCount64(vals[n.NumInputs+i] & mask))
		}
		total += int64(lanes)
	}
	var switchEnergy float64
	for i, g := range n.Gates {
		p := float64(ones[i]) / float64(total)
		alpha := 2 * p * (1 - p)
		switchEnergy += alpha * cell.Energy(g.Kind)
	}
	period := 1e3 / NominalClock
	c.Power = c.Leakage*1e-3 + switchEnergy/period
	c.Energy = switchEnergy + c.Leakage*period*1e-3
	return c
}

// TestActivityOracle pins the block-pass AnalyzeActivity bit for bit to
// the frozen per-batch oracle: on random netlists with constant rails,
// Mux2 and dead gates, at 1, 16 and 32 batches, with and without a short
// last batch.
func TestActivityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 150; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(8), rng.Intn(80))
		if trial%10 == 0 {
			n = rcAdder(1 + rng.Intn(8))
		}
		for _, batches := range []int{1, 16, 32} {
			samples := make([][]uint64, batches)
			for j := range samples {
				samples[j] = make([]uint64, n.NumInputs)
				for i := range samples[j] {
					samples[j][i] = rng.Uint64()
				}
			}
			var lanes []int
			if trial%2 == 1 {
				lanes = make([]int, batches)
				for j := range lanes {
					lanes[j] = 64
				}
				lanes[batches-1] = 1 + rng.Intn(63)
			}
			got := n.AnalyzeActivity(samples, lanes)
			want := oracleAnalyzeActivity(n, samples, lanes)
			if math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
				math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
				t.Fatalf("repro: go test ./internal/netlist -run TestActivityOracle (trial %d, %d batches): power %v energy %v, oracle %v %v",
					trial, batches, got.Power, got.Energy, want.Power, want.Energy)
			}
			if got != want {
				t.Fatalf("trial %d, %d batches: cost %+v, oracle %+v", trial, batches, got, want)
			}
		}
	}
}
