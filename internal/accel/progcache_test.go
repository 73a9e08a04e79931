package accel

import (
	"fmt"
	"sync"
	"testing"

	"autoax/internal/acl"
	"autoax/internal/imagedata"
)

// cacheFixture builds an evaluator plus a handful of configurations drawn
// from a small set of distinct circuits, so repeats are guaranteed.
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
	// Mutate nothing: use the exact configuration plus itself again —
	// distinctly allocated Circuit values with identical structure would
	// also share a key, but identity repeats are the common DSE case.
	return ev, []Configuration{exact, exact, exact}
}

// TestEvaluateCachedMatchesUncached pins the acceptance criterion: a
// cached precise evaluation returns exactly the Result a fresh build
// produces.
func TestEvaluateCachedMatchesUncached(t *testing.T) {
	ev, cfgs := cacheFixture(t)

	// Uncached reference: a fresh evaluator's first evaluation builds.
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
			t.Fatalf("evaluation %d: cached result %+v != uncached %+v", i, got, want)
		}
	}
	st := ev.ProgramCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats %+v, want 1 miss and 2 hits", st)
	}
}

// TestProgramCacheSharedAcrossClones verifies clones share one cache and
// produce identical results concurrently.
func TestProgramCacheSharedAcrossClones(t *testing.T) {
	ev, cfgs := cacheFixture(t)
	want, err := ev.Evaluate(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := ev.Clone()
			for i := 0; i < 3; i++ {
				got, err := clone.Evaluate(cfgs[0])
				if err != nil {
					errs[w] = err
					return
				}
				if got != want {
					errs[w] = fmt.Errorf("clone %d: %+v != %+v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := ev.ProgramCacheStats()
	if st.Misses != 1 {
		t.Fatalf("clones caused %d compilations, want 1 (stats %+v)", st.Misses, st)
	}
}

// TestProgramCacheEviction checks the LRU bound and the eviction counter.
func TestProgramCacheEviction(t *testing.T) {
	pc := newProgramCache(2)
	build := func(tag string) func() (compiledConfig, error) {
		return func() (compiledConfig, error) { return compiledConfig{}, nil }
	}
	for _, k := range []string{"a", "b", "c", "a"} {
		if _, err := pc.get(k, build(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.stats()
	// a, b, then c evicts a; the final a misses again and evicts b.
	if st.Entries != 2 || st.Evictions != 2 || st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 2 entries, 2 evictions, 4 misses", st)
	}
	if _, err := pc.get("c", build("c")); err != nil {
		t.Fatal(err)
	}
	if st := pc.stats(); st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 hit on surviving entry", st)
	}
}

// TestProgramCacheErrorNotCached ensures failed builds are retried, not
// poisoned.
func TestProgramCacheErrorNotCached(t *testing.T) {
	pc := newProgramCache(4)
	calls := 0
	failing := func() (compiledConfig, error) {
		calls++
		if calls == 1 {
			return compiledConfig{}, fmt.Errorf("boom")
		}
		return compiledConfig{}, nil
	}
	if _, err := pc.get("k", failing); err == nil {
		t.Fatal("want first build error")
	}
	if _, err := pc.get("k", failing); err != nil {
		t.Fatalf("second build should retry and succeed, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2", calls)
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
