package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"autoax/internal/cell"
)

// buildMajority returns MAJ(a,b,c) as the raw sum of products
// (a&b | a&c) | b&c, gate for gate.
func buildMajority() *Netlist {
	return &Netlist{Name: "maj3", NumInputs: 3, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: 1}, // 3: ab
		{Kind: cell.And2, A: 0, B: 2}, // 4: ac
		{Kind: cell.And2, A: 1, B: 2}, // 5: bc
		{Kind: cell.Or2, A: 3, B: 4},  // 6
		{Kind: cell.Or2, A: 6, B: 5},  // 7
	}, Outputs: []Signal{7}}
}

func TestEvalMajority(t *testing.T) {
	n := buildMajority()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	f := n.WordFunc(1, 1, 1)
	for a := uint64(0); a < 2; a++ {
		for bb := uint64(0); bb < 2; bb++ {
			for c := uint64(0); c < 2; c++ {
				want := uint64(0)
				if a+bb+c >= 2 {
					want = 1
				}
				if got := f(a, bb, c); got != want {
					t.Errorf("maj(%d,%d,%d) = %d, want %d", a, bb, c, got, want)
				}
			}
		}
	}
}

func TestEvalAllKinds(t *testing.T) {
	// One gate of each kind; verify truth tables exhaustively.
	cases := []struct {
		kind cell.Kind
		fn   func(a, b, c uint64) uint64
	}{
		{cell.Buf, func(a, b, c uint64) uint64 { return a }},
		{cell.Inv, func(a, b, c uint64) uint64 { return 1 ^ a }},
		{cell.And2, func(a, b, c uint64) uint64 { return a & b }},
		{cell.Or2, func(a, b, c uint64) uint64 { return a | b }},
		{cell.Nand2, func(a, b, c uint64) uint64 { return 1 ^ (a & b) }},
		{cell.Nor2, func(a, b, c uint64) uint64 { return 1 ^ (a | b) }},
		{cell.Xor2, func(a, b, c uint64) uint64 { return a ^ b }},
		{cell.Xnor2, func(a, b, c uint64) uint64 { return 1 ^ a ^ b }},
		{cell.Mux2, func(a, b, c uint64) uint64 {
			if a != 0 {
				return c
			}
			return b
		}},
		{cell.AndN2, func(a, b, c uint64) uint64 { return a &^ b }},
		{cell.OrN2, func(a, b, c uint64) uint64 { return a | (1 ^ b) }},
	}
	for _, tc := range cases {
		n := &Netlist{Name: tc.kind.String(), NumInputs: 3}
		n.Gates = []Gate{{Kind: tc.kind, A: 0, B: 1, C: 2}}
		n.Outputs = []Signal{3}
		f := n.WordFunc(1, 1, 1)
		for v := uint64(0); v < 8; v++ {
			a, b, c := v&1, (v>>1)&1, (v>>2)&1
			if got, want := f(a, b, c), tc.fn(a, b, c); got != want {
				t.Errorf("%v(%d,%d,%d) = %d, want %d", tc.kind, a, b, c, got, want)
			}
		}
	}
}

func TestConstantRails(t *testing.T) {
	n := &Netlist{Name: "consts", NumInputs: 1, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: Const1}, // = x
		{Kind: cell.And2, A: 0, B: Const0}, // = 0
		{Kind: cell.Or2, A: 0, B: Const1},  // = 1
	}, Outputs: []Signal{1, 2, 3}}
	f := n.WordFunc(1)
	if got := f(1); got != 0b101 {
		t.Errorf("f(1) = %03b, want 101", got)
	}
	if got := f(0); got != 0b100 {
		t.Errorf("f(0) = %03b, want 100", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = rng.Uint64() & 0xFFFF
	}
	planes := make([]uint64, 16)
	PackBits(vals, 16, planes)
	back := make([]uint64, 64)
	UnpackBits(planes, 64, back)
	for i := range vals {
		if vals[i] != back[i] {
			t.Fatalf("lane %d: %x != %x", i, vals[i], back[i])
		}
	}
}

func TestBuilderFoldingIdentities(t *testing.T) {
	b := NewBuilder("fold", 2)
	x, y := b.Input(0), b.Input(1)
	if got := b.And(x, Const0); got != Const0 {
		t.Errorf("AND(x,0) = %d, want Const0", got)
	}
	if got := b.And(x, Const1); got != x {
		t.Errorf("AND(x,1) = %d, want x", got)
	}
	if got := b.Xor(x, x); got != Const0 {
		t.Errorf("XOR(x,x) = %d, want Const0", got)
	}
	if got := b.Or(x, x); got != x {
		t.Errorf("OR(x,x) = %d, want x", got)
	}
	nx := b.Not(x)
	if got := b.Not(nx); got != x {
		t.Errorf("INV(INV(x)) = %d, want x", got)
	}
	if got := b.And(x, nx); got != Const0 {
		t.Errorf("AND(x,~x) = %d, want Const0", got)
	}
	if got := b.Or(x, nx); got != Const1 {
		t.Errorf("OR(x,~x) = %d, want Const1", got)
	}
	// CSE: identical gates merge, including commuted operands.
	g1 := b.And(x, y)
	g2 := b.And(y, x)
	if g1 != g2 {
		t.Errorf("CSE failed: AND(x,y)=%d, AND(y,x)=%d", g1, g2)
	}
	if got := b.Mux(x, y, y); got != y {
		t.Errorf("MUX(x,y,y) = %d, want y", got)
	}
	if got := b.Mux(Const1, x, y); got != y {
		t.Errorf("MUX(1,x,y) = %d, want y", got)
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	// Random netlists: simplification must never change the function.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := randomNetlist(rng, 6, 40)
		s := Simplify(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: simplified netlist invalid: %v", trial, err)
		}
		if err := Equivalent(n, s, 10, 0, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := s.Analyze().Area, n.Analyze().Area; got > want {
			t.Errorf("trial %d: simplify increased area %f > %f", trial, got, want)
		}
	}
}

func TestSimplifyRemovesDeadCone(t *testing.T) {
	// An adder whose output is overridden by constants must vanish.
	n := &Netlist{Name: "dead", NumInputs: 4, Gates: []Gate{
		{Kind: cell.Xor2, A: 0, B: 1},      // 4: half-adder sum
		{Kind: cell.And2, A: 0, B: 1},      // 5: half-adder carry
		{Kind: cell.Xor2, A: 2, B: 3},      // 6
		{Kind: cell.Xor2, A: 6, B: 5},      // 7: full-adder sum
		{Kind: cell.And2, A: 2, B: 3},      // 8
		{Kind: cell.And2, A: 6, B: 5},      // 9
		{Kind: cell.Or2, A: 8, B: 9},       // 10: full-adder carry
		{Kind: cell.And2, A: 0, B: Const0}, // 11: constant 0 output
	}, Outputs: []Signal{11}}
	s := Simplify(n)
	if len(s.Gates) != 0 {
		t.Errorf("dead cone not eliminated: %d gates remain", len(s.Gates))
	}
	if s.Outputs[0] != Const0 {
		t.Errorf("output = %d, want Const0", s.Outputs[0])
	}
}

func TestSimplifyConstantPropagation(t *testing.T) {
	// XOR(AND(x,0), y) should collapse to y.
	n := &Netlist{Name: "cp", NumInputs: 2, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: Const0}, // 2
		{Kind: cell.Xor2, A: 2, B: 1},      // 3
	}, Outputs: []Signal{3}}
	s := Simplify(n)
	if len(s.Gates) != 0 {
		t.Errorf("expected full collapse, got %d gates", len(s.Gates))
	}
	if s.Outputs[0] != Signal(1) {
		t.Errorf("output = %d, want input 1", s.Outputs[0])
	}
}

func TestSimplifyMergesDuplicates(t *testing.T) {
	n := &Netlist{Name: "dup", NumInputs: 2, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: 1}, // 2
		{Kind: cell.And2, A: 0, B: 1}, // 3
		{Kind: cell.Or2, A: 2, B: 3},  // 4: OR(g,g) = g
	}, Outputs: []Signal{4}}
	s := Simplify(n)
	if len(s.Gates) != 1 {
		t.Errorf("got %d gates, want 1 (single AND)", len(s.Gates))
	}
}

func TestSimplifyInverterAbsorption(t *testing.T) {
	// AND(x, INV(y)) where INV has a single fanout → ANDN2.
	n := &Netlist{Name: "absorb", NumInputs: 2, Gates: []Gate{
		{Kind: cell.Inv, A: 1},        // 2
		{Kind: cell.And2, A: 0, B: 2}, // 3
	}, Outputs: []Signal{3}}
	s := Simplify(n)
	if err := Equivalent(n, s, 10, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(s.Gates) != 1 || s.Gates[0].Kind != cell.AndN2 {
		t.Errorf("expected single ANDN2, got %v", s.Gates)
	}
}

func TestAnalyzeCriticalPath(t *testing.T) {
	// Chain of 4 inverters: delay = 4 × inverter delay.
	n := &Netlist{Name: "chain", NumInputs: 1, Gates: []Gate{
		{Kind: cell.Inv, A: 0}, {Kind: cell.Inv, A: 1},
		{Kind: cell.Inv, A: 2}, {Kind: cell.Inv, A: 3},
	}, Outputs: []Signal{4}}
	c := n.Analyze()
	want := 4 * cell.Delay(cell.Inv)
	if diff := c.Delay - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("delay = %f, want %f", c.Delay, want)
	}
	if c.GateCount != 4 || c.Cells[cell.Inv] != 4 {
		t.Errorf("gate stats wrong: %+v", c)
	}
}

func TestAnalyzeActivityEnergyBounds(t *testing.T) {
	n := buildMajority()
	rng := rand.New(rand.NewSource(3))
	block := make([]uint64, 3*BlockWords)
	for k := range block {
		block[k] = rng.Uint64()
	}
	c := blockActivity(n, [][]uint64{block}, []int{BlockWords * 64})
	if c.Energy <= 0 {
		t.Errorf("energy = %f, want > 0", c.Energy)
	}
	// Upper bound: every gate toggling every cycle at α=0.5 plus leakage.
	var maxSwitch float64
	for _, g := range n.Gates {
		maxSwitch += 0.5 * cell.Energy(g.Kind)
	}
	limit := maxSwitch + c.Leakage*(1e3/NominalClock)*1e-3
	if c.Energy > limit+1e-9 {
		t.Errorf("energy %f exceeds theoretical bound %f", c.Energy, limit)
	}
}

func TestInstantiateComposition(t *testing.T) {
	maj := buildMajority()
	// Compose two majority gates: out = MAJ(MAJ(a,b,c), d, e).
	b := NewBuilder("compose", 5)
	first := b.Instantiate(maj, []Signal{b.Input(0), b.Input(1), b.Input(2)})
	second := b.Instantiate(maj, []Signal{first[0], b.Input(3), b.Input(4)})
	b.Output(second[0])
	n := b.Build()
	f := n.WordFunc(1, 1, 1, 1, 1)
	for v := uint64(0); v < 32; v++ {
		bits := []uint64{v & 1, (v >> 1) & 1, (v >> 2) & 1, (v >> 3) & 1, (v >> 4) & 1}
		inner := uint64(0)
		if bits[0]+bits[1]+bits[2] >= 2 {
			inner = 1
		}
		want := uint64(0)
		if inner+bits[3]+bits[4] >= 2 {
			want = 1
		}
		if got := f(bits[0], bits[1], bits[2], bits[3], bits[4]); got != want {
			t.Errorf("compose(%05b) = %d, want %d", v, got, want)
		}
	}
}

// TestValidateRejectsForwardReference covers malformed netlists that
// Validate, and so DecodeNetlist, must reject: a forward operand
// reference and a gate kind past the cell library.
func TestValidateRejectsForwardReference(t *testing.T) {
	cases := map[string]*Netlist{
		// Gate 0 is node 1; its B operand names node 2, a later node.
		"forward reference": {NumInputs: 1, Gates: []Gate{{Kind: cell.And2, A: 0, B: 2}}, Outputs: []Signal{1}},
		"unknown kind":      {NumInputs: 1, Gates: []Gate{{Kind: 200, A: 0, B: 0}}, Outputs: []Signal{1}},
	}
	for name, n := range cases {
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, _, err := DecodeNetlist(n.AppendBinary(nil)); err == nil {
			t.Errorf("%s: DecodeNetlist accepted it", name)
		}
	}
}

// Property: packing then unpacking arbitrary 64-lane data is the identity.
func TestQuickPackBitsRoundTrip(t *testing.T) {
	f := func(raw [8]uint64, width uint8) bool {
		w := int(width%16) + 1
		vals := make([]uint64, len(raw))
		mask := (uint64(1) << uint(w)) - 1
		for i, v := range raw {
			vals[i] = v & mask
		}
		planes := make([]uint64, w)
		PackBits(vals, w, planes)
		back := make([]uint64, len(vals))
		UnpackBits(planes, len(vals), back)
		for i := range vals {
			if vals[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Simplify is idempotent up to cost — simplifying twice never
// reduces area further than a small epsilon.
func TestSimplifyIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := randomNetlist(rng, 5, 30)
		s1 := Simplify(n)
		s2 := Simplify(s1)
		a1, a2 := s1.Analyze().Area, s2.Analyze().Area
		if a2 < a1-1e-9 {
			t.Errorf("trial %d: second Simplify reduced area %f → %f", trial, a1, a2)
		}
	}
}

// randomNetlist builds a random DAG of gates for property testing.
func randomNetlist(rng *rand.Rand, inputs, gates int) *Netlist {
	n := &Netlist{Name: "rand", NumInputs: inputs}
	pick := func(limit int) Signal {
		r := rng.Intn(limit + 2)
		if r == limit {
			return Const0
		}
		if r == limit+1 {
			return Const1
		}
		return Signal(r)
	}
	for i := 0; i < gates; i++ {
		limit := inputs + i
		k := cell.Kind(rng.Intn(cell.NumKinds))
		g := Gate{Kind: k, A: pick(limit)}
		if cell.Arity(k) >= 2 {
			g.B = pick(limit)
		}
		if cell.Arity(k) >= 3 {
			g.C = pick(limit)
		}
		n.Gates = append(n.Gates, g)
	}
	outs := 1 + rng.Intn(4)
	for i := 0; i < outs; i++ {
		n.Outputs = append(n.Outputs, pick(n.NumNodes()))
	}
	return n
}
