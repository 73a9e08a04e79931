package netlist

import (
	"math/rand"
	"testing"

	"autoax/internal/cell"
)

// rcAdder hand-builds an n-bit ripple-carry adder from classic full
// adders (p = a⊕b; sum = p⊕cin; cout = (a∧b) ∨ (p∧cin)) — the gate-pair
// shapes the fusion pass exists for.
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

// TestFusedMatchesInterpreter is the fusion parity property: on ripple-
// carry adders (the shapes fusion targets) and random netlists (rails,
// Mux2, every cell kind), the compiled program never grows past the gate
// list, keeps the netlist's slot numbering, and produces outputs
// bit-identical to the interpreter.
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
		if p.NumGates() > len(n.Gates) {
			t.Fatalf("trial %d: fusion grew the program: %d > %d", trial, p.NumGates(), len(n.Gates))
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

// TestFusionFiresOnAdder pins that the pass actually rewrites the
// shapes it targets: on a ripple-carry adder the carry fold (And2 into
// Or2) must fire at every bit, so the program is measurably shorter than
// the gate list.
func TestFusionFiresOnAdder(t *testing.T) {
	n := rcAdder(8)
	p := Compile(n)
	// Per full adder, g = And2(a,b) is single-use into the carry Or2, so
	// 5 gates must become at most 4 instructions.
	if p.NumGates() > len(n.Gates)-8 {
		t.Fatalf("fusion too weak on 8-bit RCA: %d instructions for %d gates", p.NumGates(), len(n.Gates))
	}
	has := false
	for _, op := range p.op {
		if op >= opXor3 {
			has = true
		}
	}
	if !has {
		t.Fatalf("no fused opcode emitted for the RCA carry chain")
	}
}
