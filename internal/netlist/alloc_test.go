package netlist_test

import (
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/netlist"
)

// maxSynthesisAllocs bounds the allocations of one accelerator-level
// synthesis (Flatten+Simplify) of the exact Gaussian-filter
// configuration, which makes about 85 with pooled gate tables and pass
// scratch.  The bound leaves headroom for small changes but sits well
// below the ~330 that map-based structural hashing with fresh per-pass
// arrays makes.
const maxSynthesisAllocs = 150

func TestSynthesisAllocs(t *testing.T) {
	app := apps.GenericGF(apps.GenericGFKernels(2))
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{Samples: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		flat, err := accel.Flatten(app.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		netlist.Simplify(flat)
	})
	t.Logf("Flatten+Simplify: %.0f allocations", allocs)
	if allocs > maxSynthesisAllocs {
		t.Fatalf("Flatten+Simplify made %.0f allocations, bound %d", allocs, maxSynthesisAllocs)
	}
}

// maxActivityAllocs bounds the allocations of one AnalyzeActivity call
// on the simplified exact Gaussian-filter accelerator over the two input
// blocks precise evaluation captures.  The call makes 9: the unfused
// lowering's instruction arrays and the pool round trips of the value
// block, counts and arrival times.  An allocation per gate or per
// 64-lane word would break the bound.
const maxActivityAllocs = 12

func TestActivityAllocs(t *testing.T) {
	app := apps.GenericGF(apps.GenericGFKernels(2))
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{Samples: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := accel.Flatten(app.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simp := netlist.Simplify(flat)
	blocks := make([][]uint64, 2)
	for k := range blocks {
		blocks[k] = make([]uint64, simp.NumInputs*netlist.BlockWords)
		for i := range blocks[k] {
			blocks[k][i] = uint64(k*len(blocks[k])+i+1) * 0x9E3779B97F4A7C15
		}
	}
	lanes := []int{netlist.BlockWords * 64, 100}
	allocs := testing.AllocsPerRun(20, func() {
		simp.AnalyzeActivity(blocks, lanes)
	})
	t.Logf("AnalyzeActivity: %.0f allocations", allocs)
	if allocs > maxActivityAllocs {
		t.Fatalf("AnalyzeActivity made %.0f allocations, bound %d", allocs, maxActivityAllocs)
	}
}
