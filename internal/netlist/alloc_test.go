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
// configuration, which makes about 77 with pooled gate tables and pass
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

// maxActivityAllocs bounds the allocations of counting switching activity
// on the simplified exact Gaussian-filter accelerator the way precise
// evaluation does: two input blocks (the second partial) through
// EvalBlock into reused scratch, CountOnes on each, then ActivityCost.
// Counting a block makes none, and neither does ActivityCost: Analyze's
// arrival times come from a warm pool that keeps its slice headers.  An
// allocation per block, gate or 64-lane word would break the bound.
const maxActivityAllocs = 0

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
	prog := netlist.Compile(simp)
	blocks := make([][]uint64, 2)
	for k := range blocks {
		blocks[k] = make([]uint64, simp.NumInputs*netlist.BlockWords)
		for i := range blocks[k] {
			blocks[k][i] = uint64(k*len(blocks[k])+i+1) * 0x9E3779B97F4A7C15
		}
	}
	lanes := []int{netlist.BlockWords * 64, 100}
	scratch := make([]uint64, prog.NumSlots()*netlist.BlockWords)
	out := make([]uint64, prog.NumOutputs()*netlist.BlockWords)
	ones := make([]uint64, len(simp.Gates))
	count := testing.AllocsPerRun(20, func() {
		for k, in := range blocks {
			prog.EvalBlock(in, scratch, out)
			prog.CountOnes(scratch, lanes[k], ones)
		}
	})
	// ones holds 21 passes' counts: AllocsPerRun runs once to warm up.
	cost := testing.AllocsPerRun(20, func() {
		simp.ActivityCost(ones, 21*(lanes[0]+lanes[1]))
	})
	t.Logf("EvalBlock+CountOnes: %.0f allocations per 2 blocks; ActivityCost: %.0f", count, cost)
	if count != 0 || count+cost > maxActivityAllocs {
		t.Fatalf("counting made %.0f allocations per 2 blocks (want 0) and ActivityCost %.0f, bound %d in all",
			count, cost, maxActivityAllocs)
	}
}
