package netlist

import (
	"math/rand"
	"testing"

	"autoax/internal/cell"
)

// rcAdder hand-builds an n-bit ripple-carry adder from classic full
// adders (p = a⊕b; sum = p⊕cin; cout = (a∧b) ∨ (p∧cin)): long chains of
// single-use gate pairs.
func rcAdder(n int) *Netlist {
	nl := &Netlist{Name: "rca", NumInputs: 2 * n}
	emit := func(k cell.Kind, a, b Signal) Signal {
		nl.Gates = append(nl.Gates, Gate{Kind: k, A: a, B: b})
		return Signal(nl.NumInputs + len(nl.Gates) - 1)
	}
	cin := Signal(Const0)
	for i := 0; i < n; i++ {
		a, b := Signal(i), Signal(n+i)
		p := emit(cell.Xor2, a, b)
		sum := emit(cell.Xor2, p, cin)
		g := emit(cell.And2, a, b)
		pc := emit(cell.And2, p, cin)
		cout := emit(cell.Or2, g, pc)
		nl.Outputs = append(nl.Outputs, sum)
		cin = cout
	}
	nl.Outputs = append(nl.Outputs, cin)
	return nl
}

// TestProgramMatchesInterpreter pins Program.EvalBlock bit-identical to
// the reference interpreter on every output word and, through the
// scratch, on every gate's word, over ripple-carry adders and random
// netlists including constant rails, Mux2 and dead gates, with the
// scratch and output buffers reused across calls.
func TestProgramMatchesInterpreter(t *testing.T) {
	const W = BlockWords
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var n *Netlist
		if trial%5 == 0 {
			n = rcAdder(1 + rng.Intn(8))
		} else {
			n = randomNetlist(rng, 1+rng.Intn(8), rng.Intn(60))
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid netlist: %v", trial, err)
		}
		p := Compile(n)
		if p.NumSlots() != n.NumNodes()+2 {
			t.Fatalf("trial %d: NumSlots %d, want %d", trial, p.NumSlots(), n.NumNodes()+2)
		}
		blockIn := make([]uint64, n.NumInputs*W)
		interpVals := make([]uint64, n.NumNodes())
		blockVals := make([]uint64, p.NumSlots()*W)
		blockOut := make([]uint64, p.NumOutputs()*W)
		for rep := 0; rep < 3; rep++ {
			for i := range blockIn {
				blockIn[i] = rng.Uint64()
			}
			got := p.EvalBlock(blockIn, blockVals, blockOut)
			for w := 0; w < W; w++ {
				want := n.Eval(blockWord(blockIn, w), interpVals, nil)
				for j := range want {
					if got[j*W+w] != want[j] {
						t.Fatalf("trial %d: EvalBlock word %d output %d: got %x want %x",
							trial, w, j, got[j*W+w], want[j])
					}
				}
				for s := n.NumInputs; s < n.NumNodes(); s++ {
					if blockVals[s*W+w] != interpVals[s] {
						t.Fatalf("trial %d: scratch word %d gate %d: got %x want %x",
							trial, w, s-n.NumInputs, blockVals[s*W+w], interpVals[s])
					}
				}
			}
		}
	}
}

// TestProgramEquivalentOnArith cross-checks compiled equivalence checking:
// a netlist must stay equivalent to itself after Simplify (which rewrites
// aggressively) under the compiled-program Equivalent.
func TestProgramEquivalentOnArith(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := randomNetlist(rng, 1+rng.Intn(6), rng.Intn(40))
		s := Simplify(n)
		if err := Equivalent(n, s, 10, 4096, 1); err != nil {
			t.Fatalf("trial %d: simplified netlist not equivalent: %v", trial, err)
		}
	}
}

// TestPackBitsBlockRoundTrip pins the block pack/unpack pair against the
// single-word PackBits/UnpackBits layout.
func TestPackBitsBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(64)
		words := 1 + rng.Intn(5)
		count := 1 + rng.Intn(words*64)
		vals := make([]uint64, count)
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<uint(width) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		planes := make([]uint64, width*words)
		PackBitsBlock(vals, width, words, planes)
		// Word w of the block must equal a standalone PackBits of that
		// 64-lane chunk.
		single := make([]uint64, width)
		for w := 0; w*64 < count; w++ {
			lo := w * 64
			hi := lo + 64
			if hi > count {
				hi = count
			}
			PackBits(vals[lo:hi], width, single)
			for k := 0; k < width; k++ {
				if planes[k*words+w] != single[k] {
					t.Fatalf("trial %d: plane (%d,%d): got %x want %x", trial, k, w, planes[k*words+w], single[k])
				}
			}
		}
		back := make([]uint64, count)
		UnpackBitsBlock(planes, width, words, count, back)
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("trial %d: lane %d: got %x want %x", trial, i, back[i], vals[i])
			}
		}
	}
}

// TestFusedMatchesInterpreter is the lowering parity property on the
// shapes a pair-fusing compiler would rewrite: on ripple-carry adders and
// random netlists (rails, Mux2, every cell kind), the compiled program
// emits exactly one instruction per gate, keeps the netlist's slot
// numbering, and produces outputs bit-identical to the interpreter from
// fresh (nil) scratch and output buffers.
func TestFusedMatchesInterpreter(t *testing.T) {
	const W = BlockWords
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 250; trial++ {
		var n *Netlist
		if trial%5 == 0 {
			n = rcAdder(1 + rng.Intn(8))
		} else {
			n = randomNetlist(rng, 1+rng.Intn(8), rng.Intn(60))
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: invalid netlist: %v", trial, err)
		}
		p := Compile(n)
		if len(p.op) != len(n.Gates) {
			t.Fatalf("trial %d: %d instructions for %d gates", trial, len(p.op), len(n.Gates))
		}
		if p.NumSlots() != n.NumNodes()+2 {
			t.Fatalf("trial %d: NumSlots %d, want %d", trial, p.NumSlots(), n.NumNodes()+2)
		}
		in := make([]uint64, n.NumInputs*W)
		for i := range in {
			in[i] = rng.Uint64()
		}
		got := p.EvalBlock(in, nil, nil)
		for w := 0; w < W; w++ {
			ref := n.Eval(blockWord(in, w), nil, nil)
			for j := range ref {
				if got[j*W+w] != ref[j] {
					t.Fatalf("trial %d: output %d word %d: interp %x program %x", trial, j, w, ref[j], got[j*W+w])
				}
			}
		}
	}
}
