package approxgen

import (
	"autoax/internal/arith"
	"autoax/internal/netlist"
)

// Variant is one generated circuit together with the family it came from.
type Variant struct {
	N      *netlist.Netlist
	Family string
}

// compositions enumerates ordered partitions of n into parts ≥ minPart,
// at most max entries, deterministically (smallest first parts first).
func compositions(n, minPart, max int) [][]int {
	var out [][]int
	var cur []int
	var rec func(rem int)
	rec = func(rem int) {
		if len(out) >= max {
			return
		}
		if rem == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for p := minPart; p <= rem; p++ {
			cur = append(cur, p)
			rec(rem - p)
			cur = cur[:len(cur)-1]
			if len(out) >= max {
				return
			}
		}
	}
	rec(n)
	// Drop the trivial single-block composition (it is the exact adder).
	filtered := out[:0]
	for _, c := range out {
		if len(c) > 1 {
			filtered = append(filtered, c)
		}
	}
	return filtered
}

// AdderVariants deterministically generates count approximate n-bit adder
// netlists: exact topologies first (they anchor the zero-error end of the
// library), then the named parametric families, then seeded structural
// mutants of the exact designs until the budget is filled.
func AdderVariants(n, count int, seed int64) []Variant {
	var vs []Variant
	add := func(nl *netlist.Netlist, family string) bool {
		if len(vs) >= count {
			return false
		}
		vs = append(vs, Variant{N: nl, Family: family})
		return true
	}
	add(arith.NewRippleCarryAdder(n), "exact")
	add(arith.NewKoggeStoneAdder(n), "exact")
	for _, blk := range []int{2, 3, 4} {
		if blk < n {
			add(arith.NewCarrySelectAdder(n, blk), "exact")
		}
	}
	for k := 1; k <= n; k++ {
		add(TruncAdder(n, k), "trunc")
	}
	for k := 1; k <= n; k++ {
		add(LOAAdder(n, k), "loa")
	}
	for r := 1; r < n; r++ {
		for p := 0; p <= n-r && p <= 8; p++ {
			if r == n && p == 0 {
				continue
			}
			add(GeArAdder(n, r, p), "gear")
		}
	}
	for _, blocks := range compositions(n, 2, 200) {
		add(SegmentedAdder(n, blocks), "segmented")
	}
	fillMutants(&vs, count, seed, func() *netlist.Netlist { return arith.NewRippleCarryAdder(n) },
		func() *netlist.Netlist { return arith.NewKoggeStoneAdder(n) })
	return vs
}

// SubtractorVariants mirrors AdderVariants for n-bit subtractors.
func SubtractorVariants(n, count int, seed int64) []Variant {
	var vs []Variant
	add := func(nl *netlist.Netlist, family string) bool {
		if len(vs) >= count {
			return false
		}
		vs = append(vs, Variant{N: nl, Family: family})
		return true
	}
	add(arith.NewSubtractor(n), "exact")
	for k := 1; k <= n; k++ {
		add(TruncSubtractor(n, k), "trunc")
	}
	for k := 1; k <= n; k++ {
		add(LowerXorSubtractor(n, k), "lxor")
	}
	for _, blocks := range compositions(n, 2, 150) {
		add(SegmentedSubtractor(n, blocks), "segmented")
	}
	fillMutants(&vs, count, seed, func() *netlist.Netlist { return arith.NewSubtractor(n) })
	return vs
}

// MultiplierVariants deterministically generates count approximate n-bit
// multiplier netlists (n even): exact array/Dadda topologies, broken-array
// sweeps, truncated multipliers, UDM block masks, density-pruned Dadda
// trees, then seeded mutants.
func MultiplierVariants(n, count int, seed int64) []Variant {
	var vs []Variant
	add := func(nl *netlist.Netlist, family string) bool {
		if len(vs) >= count {
			return false
		}
		vs = append(vs, Variant{N: nl, Family: family})
		return true
	}
	add(arith.NewArrayMultiplier(n), "exact")
	add(arith.NewDaddaMultiplier(n), "exact")
	for vbl := 1; vbl <= 2*n-2; vbl++ {
		for hbl := 0; hbl < n; hbl++ {
			add(BAMMultiplier(n, vbl, hbl), "bam")
		}
	}
	for k := 1; k < 2*n-1; k++ {
		add(TruncMultiplier(n, k), "trunc")
	}
	if n >= 4 && n&(n-1) == 0 {
		for f := 1; f <= n-1; f++ {
			add(MitchellMultiplier(n, f), "mitchell")
		}
	}
	for k := 2; k < n; k++ {
		add(DRUMMultiplier(n, k), "drum")
	}
	if n%2 == 0 {
		half := n / 2
		blocks := half * half
		// Deterministic prefix masks: approximate the least significant
		// limb pairs first (sorted by limb weight), plus all-approximate.
		type bw struct{ idx, weight int }
		order := make([]bw, 0, blocks)
		for bi := 0; bi < half; bi++ {
			for bj := 0; bj < half; bj++ {
				order = append(order, bw{bi*half + bj, bi + bj})
			}
		}
		// Stable sort by weight.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].weight < order[j-1].weight; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		mask := uint64(0)
		for _, o := range order {
			mask |= 1 << uint(o.idx)
			add(UDMMultiplier(n, mask), "udm")
		}
	}
	// Density-pruned cloud: intensity grid × seeds until budget.
	intensities := []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8}
	s := seed
	for len(vs) < count {
		progressed := false
		for _, in := range intensities {
			if len(vs) >= count {
				break
			}
			add(PrunedMultiplier(n, in, s), "pruned")
			progressed = true
		}
		s++
		if !progressed {
			break
		}
	}
	return vs
}

// fillMutants appends seeded mutants of the provided base generators until
// *vs reaches count.  The base and move-count residues are taken through
// uint64 so negative seeds stay in range; for non-negative seeds they equal
// the plain int residues.
func fillMutants(vs *[]Variant, count int, seed int64, bases ...func() *netlist.Netlist) {
	if len(bases) == 0 {
		return
	}
	built := make([]*netlist.Netlist, len(bases))
	for i, f := range bases {
		built[i] = f()
	}
	s := seed
	for len(*vs) < count {
		base := built[uint64(s)%uint64(len(built))]
		ops := 1 + int(uint64(s)%6)
		*vs = append(*vs, Variant{N: Mutate(base, ops, s), Family: "mutant"})
		s++
	}
}
