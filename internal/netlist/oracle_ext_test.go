package netlist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/approxgen"
	"autoax/internal/apps"
	"autoax/internal/cell"
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

// oracleMutant is the approxgen mutant of raw circuit i that the oracle
// and canonical-form tests check.  Library builds fill past the
// structured families with such mutants, whose Bufs, constant ties and
// bypassed gates the generated circuits of oracleLibrary lack.
func oracleMutant(i int, v approxgen.Variant) *netlist.Netlist {
	return approxgen.Mutate(v.N, 1+i%6, int64(i))
}

// TestLibraryOracle checks every generated library circuit, raw and
// simplified, and a mutant of each, raw and simplified, against the
// frozen Builder and Simplify.
func TestLibraryOracle(t *testing.T) {
	raw, lib := oracleLibrary()
	for i, v := range raw {
		if err := netlist.CheckOracles(v.N); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestLibraryOracle (raw circuit %d, %s): %v", i, v.N.Name, err)
		}
		m := oracleMutant(i, v)
		if err := netlist.CheckOracles(m); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestLibraryOracle (mutant %s): %v", m.Name, err)
		}
		if err := netlist.CheckOracles(netlist.Simplify(m)); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestLibraryOracle (simplified mutant %s): %v", m.Name, err)
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

// TestSimplifyCanonicalForm pins the shape of Simplify output that keeps
// compiled programs short, since netlist.Compile lowers gate for gate:
// no Buf, no gate reading a constant rail, no gate outside the outputs'
// cone, and no Inv over a single-fanout gate it could fold into.  It
// checks every simplified library circuit, a simplified mutant of each
// generated circuit (see oracleMutant), and the simplified flattening of
// random Sobel and Gaussian-filter configurations.
func TestSimplifyCanonicalForm(t *testing.T) {
	raw, lib := oracleLibrary()
	for op, cs := range lib {
		for i, c := range cs {
			if err := canonicalFormError(c.Netlist); err != nil {
				t.Fatalf("repro: go test ./internal/netlist -run TestSimplifyCanonicalForm (%s circuit %d, %s): %v", op, i, c.Name, err)
			}
		}
	}
	for i, v := range raw {
		m := oracleMutant(i, v)
		if err := canonicalFormError(netlist.Simplify(m)); err != nil {
			t.Fatalf("repro: go test ./internal/netlist -run TestSimplifyCanonicalForm (mutant %s): %v", m.Name, err)
		}
	}
	for _, app := range []*accel.ImageApp{apps.Sobel(), apps.GenericGF(apps.GenericGFKernels(2))} {
		for seed := int64(0); seed < 30; seed++ {
			flat, err := accel.Flatten(app.Graph, randomConfiguration(app.Graph, lib, seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := canonicalFormError(netlist.Simplify(flat)); err != nil {
				t.Fatalf("repro: go test ./internal/netlist -run TestSimplifyCanonicalForm (%s, randomConfiguration seed %d): %v", app.Name, seed, err)
			}
		}
	}
}

// canonicalFormError reports the first gate of n that breaks the
// canonical form TestSimplifyCanonicalForm pins.
func canonicalFormError(n *netlist.Netlist) error {
	fanout := make([]int, n.NumNodes())
	live := make([]bool, n.NumNodes())
	for _, o := range n.Outputs {
		if o >= 0 {
			fanout[o]++
			live[o] = true
		}
	}
	operands := func(g netlist.Gate) []netlist.Signal {
		return []netlist.Signal{g.A, g.B, g.C}[:cell.Arity(g.Kind)]
	}
	for _, g := range n.Gates {
		for _, s := range operands(g) {
			if s >= 0 {
				fanout[s]++
			}
		}
	}
	for i := len(n.Gates) - 1; i >= 0; i-- {
		g := n.Gates[i]
		if !live[n.NumInputs+i] {
			return fmt.Errorf("gate %d (%s) is outside the outputs' cone", i, g.Kind)
		}
		if g.Kind == cell.Buf {
			return fmt.Errorf("gate %d is a BUF", i)
		}
		for _, s := range operands(g) {
			if s < 0 {
				return fmt.Errorf("gate %d (%s) reads constant rail %d", i, g.Kind, s)
			}
			live[s] = true
		}
		if g.Kind == cell.Inv && int(g.A) >= n.NumInputs && fanout[g.A] == 1 {
			switch k := n.Gates[int(g.A)-n.NumInputs].Kind; k {
			case cell.And2, cell.Or2, cell.Nand2, cell.Nor2, cell.Xor2, cell.Xnor2, cell.Inv:
				return fmt.Errorf("gate %d is an INV over single-fanout %s gate %d", i, k, int(g.A)-n.NumInputs)
			}
		}
	}
	return nil
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
