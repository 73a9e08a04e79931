package approxgen

import (
	"fmt"
	"testing"

	"autoax/internal/arith"
	"autoax/internal/netlist"
)

// meanAbsError computes the exhaustive mean absolute error of an n-bit
// two-operand circuit against a reference function.
func meanAbsError(t *testing.T, nl *netlist.Netlist, n int, ref func(a, b uint64) uint64) float64 {
	t.Helper()
	f := nl.WordFunc(n, n)
	var sum float64
	for a := uint64(0); a < 1<<uint(n); a++ {
		for b := uint64(0); b < 1<<uint(n); b++ {
			got, want := f(a, b), ref(a, b)
			d := int64(got) - int64(want)
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
	}
	return sum / float64(uint64(1)<<uint(2*n))
}

func TestTruncAdderZeroIsExact(t *testing.T) {
	if err := netlist.Equivalent(TruncAdder(6, 0), arith.NewRippleCarryAdder(6), 12, 0, 1); err != nil {
		t.Error(err)
	}
}

func TestTruncAdderErrorGrowsWithK(t *testing.T) {
	prev := -1.0
	for k := 0; k <= 6; k++ {
		mae := meanAbsError(t, TruncAdder(6, k), 6, func(a, b uint64) uint64 { return a + b })
		if mae <= prev {
			t.Errorf("k=%d: MAE %f did not grow (prev %f)", k, mae, prev)
		}
		prev = mae
	}
}

func TestLOAAdderBetterThanTrunc(t *testing.T) {
	// For the same k, LOA should have strictly lower MAE than truncation.
	for _, k := range []int{2, 3, 4} {
		loa := meanAbsError(t, LOAAdder(6, k), 6, func(a, b uint64) uint64 { return a + b })
		tr := meanAbsError(t, TruncAdder(6, k), 6, func(a, b uint64) uint64 { return a + b })
		if loa >= tr {
			t.Errorf("k=%d: LOA MAE %f should beat trunc MAE %f", k, loa, tr)
		}
	}
}

func TestSegmentedAdderExactOnNonCarryInputs(t *testing.T) {
	// Inputs that generate no cross-block carries must be exact.
	seg := SegmentedAdder(8, []int{4, 4})
	f := seg.WordFunc(8, 8)
	cases := [][2]uint64{{0, 0}, {1, 2}, {0x10, 0x21}, {0x33, 0x44}}
	for _, c := range cases {
		if got := f(c[0], c[1]); got != c[0]+c[1] {
			t.Errorf("seg(%#x,%#x) = %d, want %d", c[0], c[1], got, c[0]+c[1])
		}
	}
	// A carry crossing bit 4 is dropped.
	if got := f(0x0F, 0x01); got == 0x10 {
		t.Error("segmented adder unexpectedly propagated the cross-block carry")
	}
}

func TestGeArAdderFamilies(t *testing.T) {
	// GeAr with p = n−r sees the whole prefix → exact.
	full := GeArAdder(8, 4, 4)
	if err := netlist.Equivalent(full, arith.NewRippleCarryAdder(8), 16, 0, 1); err != nil {
		t.Errorf("GeAr(8,4,4): %v", err)
	}
	// Error decreases as p grows for fixed r.
	prev := 1e18
	for _, p := range []int{0, 1, 2, 4} {
		mae := meanAbsError(t, GeArAdder(6, 2, p), 6, func(a, b uint64) uint64 { return a + b })
		if mae > prev {
			t.Errorf("GeAr p=%d: MAE %f > previous %f", p, mae, prev)
		}
		prev = mae
	}
}

func TestTruncSubtractor(t *testing.T) {
	mask := uint64(1)<<7 - 1
	ts := TruncSubtractor(6, 2)
	f := ts.WordFunc(6, 6)
	// Exact when low bits are zero.
	if got := f(0x24, 0x10); got != (0x24-0x10)&mask {
		t.Errorf("trunc sub exact case: got %d", got)
	}
	mae := meanAbsError(t, ts, 6, func(a, b uint64) uint64 { return (a - b) & mask })
	if mae == 0 {
		t.Error("trunc sub should not be exact overall")
	}
	exact := meanAbsError(t, TruncSubtractor(6, 0), 6, func(a, b uint64) uint64 { return (a - b) & mask })
	if exact != 0 {
		t.Errorf("TruncSubtractor k=0 should be exact, MAE=%f", exact)
	}
}

func TestLowerXorSubtractor(t *testing.T) {
	mask := uint64(1)<<7 - 1
	ref := func(a, b uint64) uint64 { return (a - b) & mask }
	lx := meanAbsError(t, LowerXorSubtractor(6, 2), 6, ref)
	tr := meanAbsError(t, TruncSubtractor(6, 2), 6, ref)
	if lx >= tr {
		t.Errorf("lower-xor MAE %f should beat trunc MAE %f", lx, tr)
	}
	if err := netlist.Equivalent(LowerXorSubtractor(6, 0), arith.NewSubtractor(6), 12, 0, 1); err != nil {
		t.Errorf("k=0 should be exact: %v", err)
	}
}

func TestBAMMultiplier(t *testing.T) {
	if err := netlist.Equivalent(BAMMultiplier(4, 0, 0), arith.NewArrayMultiplier(4), 8, 0, 1); err != nil {
		t.Errorf("BAM(0,0) not exact: %v", err)
	}
	prev := -1.0
	for _, vbl := range []int{0, 2, 4, 6} {
		mae := meanAbsError(t, BAMMultiplier(4, vbl, 0), 4, func(a, b uint64) uint64 { return a * b })
		if mae < prev {
			t.Errorf("vbl=%d: MAE %f decreased (prev %f)", vbl, mae, prev)
		}
		prev = mae
	}
}

func TestBAMAreaShrinks(t *testing.T) {
	exact := netlist.Simplify(BAMMultiplier(8, 0, 0)).Analyze().Area
	broken := netlist.Simplify(BAMMultiplier(8, 8, 4)).Analyze().Area
	if broken >= exact {
		t.Errorf("BAM(8,4) area %f should be below exact %f", broken, exact)
	}
}

func TestTruncMultiplier(t *testing.T) {
	tm := TruncMultiplier(4, 3)
	f := tm.WordFunc(4, 4)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			got := f(a, b)
			if got&7 != 0 {
				t.Fatalf("trunc mult emitted low bits: %d×%d=%d", a, b, got)
			}
			exact := a * b
			if got > exact {
				t.Fatalf("truncation overshot: %d×%d=%d > %d", a, b, got, exact)
			}
		}
	}
}

func TestUDMMultiplier(t *testing.T) {
	if err := netlist.Equivalent(UDMMultiplier(4, 0), arith.NewArrayMultiplier(4), 8, 0, 1); err != nil {
		t.Errorf("UDM mask=0 not exact: %v", err)
	}
	// Fully approximate 4×4 UDM: error only on inputs with a 3 limb.
	udm := UDMMultiplier(4, 0xF)
	f := udm.WordFunc(4, 4)
	if got := f(3, 3); got != 7 {
		t.Errorf("UDM 3×3 = %d, want 7 (Kulkarni block)", got)
	}
	if got := f(2, 2); got != 4 {
		t.Errorf("UDM 2×2 = %d, want 4", got)
	}
	// Undershoot only: Kulkarni blocks never overestimate.
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			if got := f(a, b); got > a*b {
				t.Fatalf("UDM overshot: %d×%d=%d", a, b, got)
			}
		}
	}
}

func TestPrunedMultiplierDeterministic(t *testing.T) {
	m1 := PrunedMultiplier(6, 0.3, 42)
	m2 := PrunedMultiplier(6, 0.3, 42)
	if err := netlist.Equivalent(m1, m2, 12, 0, 1); err != nil {
		t.Errorf("same seed should give identical function: %v", err)
	}
	if m1.Name != m2.Name {
		t.Errorf("names differ: %q vs %q", m1.Name, m2.Name)
	}
}

func TestMutateDeterministicAndValid(t *testing.T) {
	base := arith.NewRippleCarryAdder(8)
	m1 := Mutate(base, 3, 7)
	m2 := Mutate(base, 3, 7)
	if err := m1.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := netlist.Equivalent(m1, m2, 16, 0, 1); err != nil {
		t.Errorf("mutants with same seed differ: %v", err)
	}
	// The base must not be modified.
	if err := netlist.Equivalent(base, arith.NewRippleCarryAdder(8), 16, 0, 1); err != nil {
		t.Errorf("Mutate corrupted its input: %v", err)
	}
}

func TestAdderVariantsBudget(t *testing.T) {
	vs := AdderVariants(8, 120, 1)
	if len(vs) != 120 {
		t.Fatalf("got %d variants, want 120", len(vs))
	}
	names := map[string]bool{}
	families := map[string]bool{}
	for _, v := range vs {
		if err := v.N.Validate(); err != nil {
			t.Fatalf("%s: %v", v.N.Name, err)
		}
		if names[v.N.Name] {
			t.Errorf("duplicate variant name %q", v.N.Name)
		}
		names[v.N.Name] = true
		families[v.Family] = true
		if v.N.NumInputs != 16 || len(v.N.Outputs) != 9 {
			t.Fatalf("%s: wrong interface (%d in, %d out)", v.N.Name, v.N.NumInputs, len(v.N.Outputs))
		}
	}
	for _, f := range []string{"exact", "trunc", "loa", "gear", "segmented"} {
		if !families[f] {
			t.Errorf("family %q missing from enumeration", f)
		}
	}
}

func TestSubtractorVariantsBudget(t *testing.T) {
	vs := SubtractorVariants(10, 80, 1)
	if len(vs) != 80 {
		t.Fatalf("got %d variants, want 80", len(vs))
	}
	for _, v := range vs {
		if v.N.NumInputs != 20 || len(v.N.Outputs) != 11 {
			t.Fatalf("%s: wrong interface", v.N.Name)
		}
	}
}

// TestVariantsNegativeSeeds fills budgets past the named families (68 for
// add8, 54 for sub10) so mutants are needed: negative seeds used to index
// the mutant bases at -1.  Non-negative seeds keep the historical int
// residues, so existing libraries and their cache keys do not change.
func TestVariantsNegativeSeeds(t *testing.T) {
	const count = 300
	gens := []struct {
		name  string
		gen   func(n, count int, seed int64) []Variant
		width int
		bases []string
	}{
		{"adder", AdderVariants, 8, []string{arith.NewRippleCarryAdder(8).Name, arith.NewKoggeStoneAdder(8).Name}},
		{"subtractor", SubtractorVariants, 10, []string{arith.NewSubtractor(10).Name}},
	}
	for _, g := range gens {
		for _, seed := range []int64{-4, -3, 3} {
			vs := g.gen(g.width, count, seed)
			if len(vs) != count {
				t.Fatalf("%s seed %d: got %d variants, want %d", g.name, seed, len(vs), count)
			}
			s := seed
			for _, v := range vs {
				if err := v.N.Validate(); err != nil {
					t.Fatalf("%s seed %d: %s: %v", g.name, seed, v.N.Name, err)
				}
				if v.Family != "mutant" {
					continue
				}
				base, ops := uint64(s)%uint64(len(g.bases)), 1+uint64(s)%6
				if s >= 0 {
					base, ops = uint64(int(s)%len(g.bases)), uint64(1+int(s)%6)
				}
				if want := fmt.Sprintf("%s_mut%d_s%d", g.bases[base], ops, s); v.N.Name != want {
					t.Fatalf("%s seed %d: mutant %q, want %q", g.name, seed, v.N.Name, want)
				}
				s++
			}
			if s == seed {
				t.Fatalf("%s seed %d: no mutants at count %d", g.name, seed, count)
			}
		}
	}
}

func TestMultiplierVariantsBudget(t *testing.T) {
	vs := MultiplierVariants(8, 200, 1)
	if len(vs) != 200 {
		t.Fatalf("got %d variants, want 200", len(vs))
	}
	families := map[string]int{}
	for _, v := range vs {
		if v.N.NumInputs != 16 || len(v.N.Outputs) != 16 {
			t.Fatalf("%s: wrong interface", v.N.Name)
		}
		families[v.Family]++
	}
	for _, f := range []string{"exact", "bam", "trunc", "udm", "pruned"} {
		if families[f] == 0 {
			t.Errorf("family %q missing (got %v)", f, families)
		}
	}
}

func TestCompositionsSumAndCount(t *testing.T) {
	cs := compositions(6, 2, 1000)
	for _, c := range cs {
		sum := 0
		for _, p := range c {
			sum += p
			if p < 2 {
				t.Errorf("part %d below minimum in %v", p, c)
			}
		}
		if sum != 6 {
			t.Errorf("composition %v sums to %d", c, sum)
		}
		if len(c) < 2 {
			t.Errorf("trivial composition %v should be filtered", c)
		}
	}
}
