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
