package arith

import (
	"math/rand"
	"testing"
	"testing/quick"

	"autoax/internal/netlist"
)

func exhaustiveCheck(t *testing.T, n *netlist.Netlist, wa, wb int, want func(a, b uint64) uint64) {
	t.Helper()
	f := n.WordFunc(wa, wb)
	for a := uint64(0); a < 1<<uint(wa); a++ {
		for b := uint64(0); b < 1<<uint(wb); b++ {
			if got, w := f(a, b), want(a, b); got != w {
				t.Fatalf("%s(%d,%d) = %d, want %d", n.Name, a, b, got, w)
			}
		}
	}
}

func sampledCheck(t *testing.T, n *netlist.Netlist, wa, wb int, samples int, want func(a, b uint64) uint64) {
	t.Helper()
	f := n.WordFunc(wa, wb)
	rng := rand.New(rand.NewSource(11))
	ma, mb := uint64(1)<<uint(wa)-1, uint64(1)<<uint(wb)-1
	for i := 0; i < samples; i++ {
		a, b := rng.Uint64()&ma, rng.Uint64()&mb
		if got, w := f(a, b), want(a, b); got != w {
			t.Fatalf("%s(%d,%d) = %d, want %d", n.Name, a, b, got, w)
		}
	}
}

func TestRippleCarryAdderExhaustive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6} {
		add := NewRippleCarryAdder(n)
		if err := add.Validate(); err != nil {
			t.Fatal(err)
		}
		exhaustiveCheck(t, add, n, n, func(a, b uint64) uint64 { return a + b })
	}
}

func TestRippleCarryAdder16Sampled(t *testing.T) {
	add := NewRippleCarryAdder(16)
	sampledCheck(t, add, 16, 16, 2000, func(a, b uint64) uint64 { return a + b })
}

func TestKoggeStoneAdder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		add := NewKoggeStoneAdder(n)
		exhaustiveCheck(t, add, n, n, func(a, b uint64) uint64 { return a + b })
	}
	sampledCheck(t, NewKoggeStoneAdder(16), 16, 16, 2000, func(a, b uint64) uint64 { return a + b })
}

func TestCarrySelectAdder(t *testing.T) {
	for _, block := range []int{1, 2, 3, 4, 8} {
		add := NewCarrySelectAdder(8, block)
		exhaustiveCheck(t, add, 8, 8, func(a, b uint64) uint64 { return a + b })
	}
}

func TestAdderVariantsEquivalent(t *testing.T) {
	// All exact adder topologies must agree, post-simplification too.
	rca := NewRippleCarryAdder(9)
	ks := NewKoggeStoneAdder(9)
	cs := NewCarrySelectAdder(9, 3)
	if err := netlist.Equivalent(rca, ks, 18, 0, 1); err != nil {
		t.Error(err)
	}
	if err := netlist.Equivalent(rca, cs, 18, 0, 1); err != nil {
		t.Error(err)
	}
	simp := netlist.Simplify(rca)
	if err := netlist.Equivalent(rca, simp, 18, 0, 1); err != nil {
		t.Error(err)
	}
}

func TestSubtractorExhaustive(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		sub := NewSubtractor(n)
		mask := uint64(1)<<uint(n+1) - 1
		exhaustiveCheck(t, sub, n, n, func(a, b uint64) uint64 {
			return (a - b) & mask // two's complement over n+1 bits
		})
	}
}

func TestSubtractor10Sampled(t *testing.T) {
	sub := NewSubtractor(10)
	mask := uint64(1)<<11 - 1
	sampledCheck(t, sub, 10, 10, 4000, func(a, b uint64) uint64 { return (a - b) & mask })
}

func TestArrayMultiplierExhaustive(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		mul := NewArrayMultiplier(n)
		exhaustiveCheck(t, mul, n, n, func(a, b uint64) uint64 { return a * b })
	}
}

func TestArrayMultiplier8Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mul := NewArrayMultiplier(8)
	exhaustiveCheck(t, mul, 8, 8, func(a, b uint64) uint64 { return a * b })
}

func TestDaddaMultiplier(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		mul := NewDaddaMultiplier(n)
		exhaustiveCheck(t, mul, n, n, func(a, b uint64) uint64 { return a * b })
	}
	// 8-bit: equivalence against array multiplier by sampling.
	if err := netlist.Equivalent(NewArrayMultiplier(8), NewDaddaMultiplier(8), 16, 0, 1); err != nil {
		t.Error(err)
	}
}

func TestDaddaFasterThanArray(t *testing.T) {
	arr := NewArrayMultiplier(8).Analyze()
	dad := NewDaddaMultiplier(8).Analyze()
	if dad.Delay >= arr.Delay {
		t.Errorf("dadda delay %.3f should beat array delay %.3f", dad.Delay, arr.Delay)
	}
}

func TestAbs(t *testing.T) {
	for _, n := range []int{4, 8, 11} {
		abs := NewAbs(n)
		f := abs.WordFunc(n)
		for x := uint64(0); x < 1<<uint(n); x++ {
			// Interpret x as n-bit two's complement.
			v := int64(x)
			if x>>(uint(n)-1) != 0 {
				v = int64(x) - int64(1)<<uint(n)
			}
			want := uint64(v)
			if v < 0 {
				want = uint64(-v)
			}
			if got := f(x); got != want {
				t.Fatalf("abs%d(%d) = %d, want %d", n, x, got, want)
			}
		}
	}
}

func TestClamp(t *testing.T) {
	cl := NewClamp(11, 8)
	f := cl.WordFunc(11)
	for x := uint64(0); x < 1<<11; x++ {
		want := x
		if want > 255 {
			want = 255
		}
		if got := f(x); got != want {
			t.Fatalf("clamp(%d) = %d, want %d", x, got, want)
		}
	}
}

// Property: AddBus handles mismatched widths by zero-padding.
func TestQuickAddBusMixedWidths(t *testing.T) {
	f := func(a uint16, b uint8) bool {
		bb := netlist.NewBuilder("mixed", 24)
		x := bb.Inputs()[:16]
		y := bb.Inputs()[16:24]
		bb.OutputBus(AddBus(bb, x, y, netlist.Const0))
		n := bb.Build()
		fn := n.WordFunc(16, 8)
		return fn(uint64(a), uint64(b)) == uint64(a)+uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressColumnsMatchesSum(t *testing.T) {
	// Sum of three 4-bit numbers via column compression.
	b := netlist.NewBuilder("csa3", 12)
	in := b.Inputs()
	cols := make([]Bus, 4)
	for w := 0; w < 4; w++ {
		cols[w] = Bus{in[w], in[4+w], in[8+w]}
	}
	r0, r1 := CompressColumns(b, cols)
	b.OutputBus(AddBus(b, r0, r1, netlist.Const0))
	n := b.Build()
	f := n.WordFunc(4, 4, 4)
	for a := uint64(0); a < 16; a++ {
		for c := uint64(0); c < 16; c++ {
			for d := uint64(0); d < 16; d++ {
				want := a + c + d
				got := f(a, c, d) & 63
				if got != want {
					t.Fatalf("csa(%d,%d,%d) = %d, want %d", a, c, d, got, want)
				}
			}
		}
	}
}
