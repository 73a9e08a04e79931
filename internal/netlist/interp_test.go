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
// and the activity count (CountOnes, ActivityCost) are pinned against it.
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

// blockWord returns word w of every plane of an EvalBlock input block:
// one 64-lane word per primary input, the layout Eval takes.
func blockWord(block []uint64, w int) []uint64 {
	word := make([]uint64, len(block)/BlockWords)
	for i := range word {
		word[i] = block[i*BlockWords+w]
	}
	return word
}

// blockActivity is switching activity the way production counts it: each
// block runs through one compiled program, CountOnes reads its gate
// values from the scratch under the block's lane count, and ActivityCost
// turns the summed counts into Cost.
func blockActivity(n *Netlist, blocks [][]uint64, lanes []int) Cost {
	p := Compile(n)
	scratch := make([]uint64, p.NumSlots()*BlockWords)
	ones := make([]uint64, len(n.Gates))
	total := 0
	for k, in := range blocks {
		p.EvalBlock(in, scratch, nil)
		p.CountOnes(scratch, lanes[k], ones)
		total += lanes[k]
	}
	return n.ActivityCost(ones, total)
}

// TestActivityOracle pins the block-form activity count (EvalBlock, then
// CountOnes and ActivityCost) bit for bit to the frozen per-batch oracle, over random netlists (Buf, Mux2, constant
// rails, dead gates) and ripple-carry adders.  Each case draws random
// input blocks; the oracle takes the same words one 64-lane batch at a
// time.  Sweep cases fill every block but a partial last one and cap the
// capture at 1 to 40 words the way characterization does: whole blocks,
// the block that reaches the cap trimmed to the words still wanted.  The
// other cases capture every block, each with a random lane count, so
// partial words and partial blocks appear anywhere.  Lanes past a
// block's count hold random bits that the lane masks must drop.
func TestActivityOracle(t *testing.T) {
	const W = BlockWords
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 400; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(8), rng.Intn(80))
		if trial%10 == 0 {
			n = rcAdder(1 + rng.Intn(8))
		}
		sweep, wordCap := 1+rng.Intn(6*W*64), 1+rng.Intn(40)
		if trial%2 == 1 {
			wordCap = math.MaxInt
		}
		var blocks, samples [][]uint64
		var lanes, laneCounts []int
		for base := 0; base < sweep; base += W * 64 {
			block := make([]uint64, n.NumInputs*W)
			for i := range block {
				block[i] = rng.Uint64()
			}
			bl := min(sweep-base, W*64)
			if trial%2 == 1 {
				bl = 1 + rng.Intn(W*64)
			}
			for w := 0; w*64 < bl && len(samples) < wordCap; w++ {
				samples = append(samples, blockWord(block, w))
				laneCounts = append(laneCounts, min(bl-w*64, 64))
			}
			if want := wordCap - len(blocks)*W; want > 0 {
				blocks = append(blocks, block)
				lanes = append(lanes, min(bl, min(want, W)*64))
			}
		}
		got := blockActivity(n, blocks, lanes)
		want := oracleAnalyzeActivity(n, samples, laneCounts)
		if math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
			math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
			t.Fatalf("repro: go test ./internal/netlist -run TestActivityOracle (trial %d, cap %d words, lanes %v): power %v energy %v, oracle %v %v",
				trial, wordCap, lanes, got.Power, got.Energy, want.Power, want.Energy)
		}
		if got != want {
			t.Fatalf("trial %d, cap %d words, lanes %v: cost %+v, oracle %+v", trial, wordCap, lanes, got, want)
		}
	}
}
