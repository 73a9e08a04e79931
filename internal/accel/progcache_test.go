package accel

import (
	"testing"

	"autoax/internal/acl"
	"autoax/internal/imagedata"
)

// cacheFixture builds an evaluator with no program directory plus the
// tiny app's exact configuration three times over, so every evaluation
// after the first repeats one.
func cacheFixture(t *testing.T) (*Evaluator, []Configuration) {
	t.Helper()
	app := tinyApp()
	images := []*imagedata.Image{imagedata.Synthetic(16, 12, 3)}
	ev, err := NewEvaluator(app, images)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ev, []Configuration{exact, exact, exact}
}

// TestEvaluateCachedMatchesUncached pins repeat evaluation without a
// program directory: each of three evaluations of one configuration
// compiles afresh and returns exactly the Result a fresh evaluator's
// first evaluation produces.
func TestEvaluateCachedMatchesUncached(t *testing.T) {
	ev, cfgs := cacheFixture(t)

	ref, _ := cacheFixture(t)
	want, err := ref.Evaluate(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}

	for i, cfg := range cfgs {
		got, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("evaluation %d: result %+v != fresh evaluator's %+v", i, got, want)
		}
	}
	st := ev.ProgramCacheStats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 3 compiles and no hits", st)
	}
}

// TestStructuralKeyNameInvariant pins the cache key's name invariance and
// structure sensitivity.
func TestStructuralKeyNameInvariant(t *testing.T) {
	app := tinyApp()
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg[0]
	renamed := *c
	renamed.Name = "totally-different-name"
	if acl.StructuralKey(c) != acl.StructuralKey(&renamed) {
		t.Fatal("renaming a circuit changed its structural key")
	}
	mutated := *c
	mutated.Netlist = c.Netlist.Clone()
	mutated.Netlist.Outputs = append([]int32(nil), c.Netlist.Outputs...)
	mutated.Netlist.Outputs[0] = mutated.Netlist.Outputs[len(mutated.Netlist.Outputs)-1]
	if acl.StructuralKey(c) == acl.StructuralKey(&mutated) {
		t.Fatal("structurally different circuits share a key")
	}
}
