package accel

import (
	"testing"

	"autoax/internal/acl"
	"autoax/internal/netlist"
)

// TestFlattenConstantNode verifies constant nodes become rail wiring.
func TestFlattenConstantNode(t *testing.T) {
	g := NewGraph("addc")
	x := g.Input("x", 8)
	c := g.Constant("c", 8, 100)
	sum := g.Add("add", 8, x, c)
	g.Output(sum)
	cfg, err := ExactConfiguration(g, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := flat.WordFunc(8)
	for x := uint64(0); x < 256; x += 3 {
		if got := f(x); got != x+100 {
			t.Fatalf("f(%d) = %d, want %d", x, got, x+100)
		}
	}
	// After simplification the constant operand folds into the logic:
	// strictly fewer gates than a general adder.
	general, _ := Flatten(g, cfg)
	simp := netlist.Simplify(general)
	exactAdder := netlist.Simplify(cfg[0].Netlist)
	if len(simp.Gates) >= len(exactAdder.Gates) {
		t.Errorf("constant operand did not shrink the adder: %d vs %d gates",
			len(simp.Gates), len(exactAdder.Gates))
	}
}

// TestFlattenMultiOutputGraph checks that graphs with several outputs
// flatten correctly (ImageApp requires one output, but the graph layer is
// general).
func TestFlattenMultiOutputGraph(t *testing.T) {
	g := NewGraph("multi")
	a := g.Input("a", 4)
	b := g.Input("b", 4)
	sum := g.Add("add", 4, a, b)
	diff := g.Sub("sub", 4, a, b)
	g.Output(sum)
	g.Output(diff)
	cfg, err := ExactConfiguration(g, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Outputs) != 5+5 {
		t.Fatalf("output bits = %d, want 10", len(flat.Outputs))
	}
	f := flat.WordFunc(4, 4)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			got := f(a, b)
			wantSum := a + b
			wantDiff := (a - b) & 31
			if got&31 != wantSum || got>>5 != wantDiff {
				t.Fatalf("multi(%d,%d): sum %d diff %d", a, b, got&31, got>>5)
			}
		}
	}
}

// TestFlattenShiftDropsBits checks the right-shift wiring against the
// exact model on a composed pipeline.
func TestFlattenShiftDropsBits(t *testing.T) {
	g := NewGraph("shift")
	x := g.Input("x", 8)
	sl := g.ShiftL("sl", x, 3)
	tr := g.Trunc("tr", sl, 9)
	g.Output(g.ShiftR("sr", tr, 2))
	flat, err := Flatten(g, Configuration{})
	if err != nil {
		t.Fatal(err)
	}
	f := flat.WordFunc(8)
	for v := uint64(0); v < 256; v++ {
		want := g.EvalExact([]uint64{v})[0]
		if got := f(v); got != want {
			t.Fatalf("shift(%d) = %d, want %d", v, got, want)
		}
	}
	// Pure wiring: no gates at all.
	if len(flat.Gates) != 0 {
		t.Errorf("wiring-only graph produced %d gates", len(flat.Gates))
	}
}

// TestNaiveAreaOverestimatesUnderHighError reproduces the paper's §4.1.2
// observation at the flattening level: a configuration whose final
// subtractor ignores most inputs lets synthesis strip the upstream adders,
// so the real area is far below the sum of the library areas.
func TestNaiveAreaOverestimatesUnderHighError(t *testing.T) {
	g := NewGraph("strip")
	a := g.Input("a", 8)
	b := g.Input("b", 8)
	sum := g.Add("add", 8, a, b) // feeds only the subtractor
	diff := g.Sub("sub", 9, sum, g.Constant("z", 9, 0))
	g.Output(g.Trunc("out", diff, 8))

	exactCfg, err := ExactConfiguration(g, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Approximate subtractor that zeroes its 8 low output bits: the
	// truncated output depends on almost nothing.
	exactAdd := exactCfg[0]
	subOp := acl.Op{Kind: acl.Sub, Width: 9}
	heavyTrunc, err := acl.Characterize(truncSub9(), subOp, "trunc", acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configuration{exactAdd, heavyTrunc}
	flat, err := Flatten(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	real := netlist.Simplify(flat).Analyze().Area
	naive := exactAdd.Area + heavyTrunc.Area
	if real > naive/2 {
		t.Errorf("expected dead-cone stripping: real %.1f vs naive sum %.1f", real, naive)
	}
}

// truncSub9 is a 9-bit subtractor whose 8 low result bits are constant 0;
// only the top bit pair is subtracted (d = x₈ ⊕ y₈, borrow = ¬x₈·y₈).
func truncSub9() *netlist.Netlist {
	b := netlist.NewBuilder("sub9_trunc8", 18)
	x, y := b.Inputs()[:9], b.Inputs()[9:]
	out := make([]netlist.Signal, 0, 10)
	for i := 0; i < 8; i++ {
		out = append(out, netlist.Const0)
	}
	out = append(out, b.Xor(x[8], y[8]), b.AndNot(y[8], x[8]))
	b.OutputBus(out)
	return b.Build()
}
