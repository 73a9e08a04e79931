package netlist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/approxgen"
	"autoax/internal/apps"
	"autoax/internal/netlist"
)

// oracleLibrary generates an add8/add9/sub10/mul8/add16 library the way
// acl.Build does, keeping both the raw generated netlists and the
// simplified circuits a configuration instantiates.
func oracleLibrary() (raw []approxgen.Variant, lib map[acl.Op][]*acl.Circuit) {
	lib = make(map[acl.Op][]*acl.Circuit)
	for _, spec := range []struct {
		op    acl.Op
		count int
		gen   func(n, count int, seed int64) []approxgen.Variant
	}{
		{acl.Op{Kind: acl.Add, Width: 8}, 40, approxgen.AdderVariants},
		{acl.Op{Kind: acl.Add, Width: 9}, 12, approxgen.AdderVariants},
		{acl.Op{Kind: acl.Sub, Width: 10}, 30, approxgen.SubtractorVariants},
		{acl.Op{Kind: acl.Mul, Width: 8}, 40, approxgen.MultiplierVariants},
		{acl.Op{Kind: acl.Add, Width: 16}, 12, approxgen.AdderVariants},
	} {
		for _, v := range spec.gen(spec.op.Width, spec.count, 1) {
			raw = append(raw, v)
			lib[spec.op] = append(lib[spec.op], &acl.Circuit{Name: v.N.Name, Op: spec.op, Netlist: netlist.Simplify(v.N)})
		}
	}
	return raw, lib
}

// TestLibraryOracle checks every generated library circuit, raw and
// simplified, against the frozen Builder and Simplify.
func TestLibraryOracle(t *testing.T) {
	raw, lib := oracleLibrary()
	for i, v := range raw {
		if err := netlist.CheckOracles(v.N); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestLibraryOracle (raw circuit %d, %s): %v", i, v.N.Name, err)
		}
	}
	for op, cs := range lib {
		for i, c := range cs {
			if err := netlist.CheckOracles(c.Netlist); err != nil {
				t.Fatalf("repro: go test ./internal/netlist -run TestLibraryOracle (%s circuit %d, %s): %v", op, i, c.Name, err)
			}
		}
	}
}

// TestConfigurationOracle flattens random Sobel and Gaussian-filter
// configurations and checks each flattened accelerator against the
// frozen Builder and Simplify.
func TestConfigurationOracle(t *testing.T) {
	_, lib := oracleLibrary()
	for _, app := range []*accel.ImageApp{apps.Sobel(), apps.GenericGF(apps.GenericGFKernels(2))} {
		for seed := int64(0); seed < 30; seed++ {
			cfg := randomConfiguration(app.Graph, lib, seed)
			flat, err := accel.Flatten(app.Graph, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := netlist.CheckOracles(flat); err != nil {
				t.Fatalf("repro: go test ./internal/netlist -run TestConfigurationOracle (%s, randomConfiguration seed %d): %v", app.Name, seed, err)
			}
		}
	}
}

// randomConfiguration picks one library circuit per operation node.
func randomConfiguration(g *accel.Graph, lib map[acl.Op][]*acl.Circuit, seed int64) accel.Configuration {
	rng := rand.New(rand.NewSource(seed))
	var cfg accel.Configuration
	for _, id := range g.OpNodes() {
		cs := lib[g.Nodes[id].Op]
		if len(cs) == 0 {
			panic(fmt.Sprintf("no %s circuits", g.Nodes[id].Op))
		}
		cfg = append(cfg, cs[rng.Intn(len(cs))])
	}
	return cfg
}
