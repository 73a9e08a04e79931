package dse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"autoax/internal/acl"
	"autoax/internal/pareto"
)

// randomSpace draws a space with random op count, library sizes and
// circuit parameters — the property-test generator of the engine-parity
// suite (single-circuit libraries included on purpose: they exercise the
// cannot-move paths).
func randomSpace(rng *rand.Rand) Space {
	s := make(Space, 2+rng.Intn(4))
	for k := range s {
		lib := make([]*acl.Circuit, 1+rng.Intn(8))
		for i := range lib {
			lib[i] = &acl.Circuit{
				Name: "r", Op: acl.Op{Kind: acl.Add, Width: 8},
				Area:  rng.Float64() * 100,
				Power: rng.Float64() * 10,
				Delay: rng.Float64(),
				WMED:  rng.Float64() * 50,
			}
		}
		s[k] = lib
	}
	return s
}

// naiveModels wraps a space in Models backed by the parameterless naive
// regressors — deterministic estimates with no training step.
func naiveModels(s Space) *Models {
	return &Models{QoR: NaiveSSIM{}, HW: &NaiveArea{}, Space: s}
}

func TestSearchEngineRegistry(t *testing.T) {
	want := []string{"hillclimb", "nsga2", "random"}
	if got := SearchEngines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchEngines() = %v, want %v", got, want)
	}
	e, err := SearchEngineByName("")
	if err != nil || e.Name() != DefaultEngineName {
		t.Fatalf("empty name resolved to (%v, %v), want the default engine", e, err)
	}
	if _, err := SearchEngineByName("simulated-annealing"); err == nil {
		t.Fatal("unknown engine name must fail")
	}
	if _, err := RunEngine(context.Background(), "nope", naiveModels(syntheticSpace(2, 3)), SearchOptions{}); err == nil {
		t.Fatal("RunEngine with an unknown name must fail")
	}
}

// TestHillClimbEngineMatchesPreSeam pins the refactor's acceptance
// criterion: across random spaces and seeds, the "hillclimb" engine
// produces archives set-equal to the pre-seam pre-PR5 reference
// implementation (refHillClimb) — the seam changed dispatch, not behavior.
func TestHillClimbEngineMatchesPreSeam(t *testing.T) {
	eng, err := SearchEngineByName("hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s := randomSpace(rng)
		m := naiveModels(s)
		opt := SearchOptions{Evaluations: 3000, Stagnation: 20, Seed: seed}
		got, err := eng.Run(context.Background(), m, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := refHillClimb(s, m.Estimator(), opt)
		requireSetEqual(t, fmt.Sprintf("seed %d (%d ops)", seed, len(s)),
			got.Points(), got.Payloads(), ref.pts, ref.payloads)
	}
}

// TestRandomEngineMatchesRandomSearch pins the "random" engine to the
// frozen scalar RS baseline: same seed, set-equal archives.
func TestRandomEngineMatchesRandomSearch(t *testing.T) {
	eng, err := SearchEngineByName("random")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		s := randomSpace(rng)
		m := naiveModels(s)
		opt := SearchOptions{Evaluations: 2000, Seed: seed}
		got, err := eng.Run(context.Background(), m, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := refRandomSearch(s, m.Estimator(), opt)
		requireSetEqual(t, fmt.Sprintf("seed %d", seed),
			got.Points(), got.Payloads(), ref.Points(), ref.Payloads())
	}
}

// TestNSGA2BitIdentical pins the nsga2 determinism contract: for a fixed
// (seed, budget, population) the full archive — points and payloads, in
// storage order — is bit-identical across reruns and every GOMAXPROCS
// (0: the ambient value).
func TestNSGA2BitIdentical(t *testing.T) {
	s := syntheticSpace(4, 8)
	m := naiveModels(s)
	eng, err := SearchEngineByName("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) *pareto.Archive[[]int] {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		a, err := eng.Run(context.Background(), m, SearchOptions{
			Evaluations: 4000, Seed: 7, Population: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := run(1)
	if want.Len() == 0 {
		t.Fatal("empty nsga2 archive")
	}
	for _, procs := range []int{1, 2, 4, 0} {
		got := run(procs)
		if !reflect.DeepEqual(want.Points(), got.Points()) || !reflect.DeepEqual(want.Payloads(), got.Payloads()) {
			t.Fatalf("GOMAXPROCS %d: archive differs from the sequential run", procs)
		}
	}
}

// TestNSGA2Dominance checks the nsga2 archive against brute-force
// references: internally non-dominated under O(n²) pairwise dominance,
// every payload reproduces its archived point under the estimator, and
// every point is covered by the exhaustively enumerated optimal front.
func TestNSGA2Dominance(t *testing.T) {
	s := syntheticSpace(3, 6)
	m := naiveModels(s)
	arch, err := RunEngine(context.Background(), "nsga2", m, SearchOptions{Evaluations: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if arch.Len() < 3 {
		t.Fatalf("nsga2 found only %d front members", arch.Len())
	}
	pts, cfgs := arch.Points(), arch.Payloads()
	for i := range pts {
		for j := range pts {
			if i != j && pareto.Dominates(pts[i], pts[j]) {
				t.Fatalf("archived point %v dominates archived point %v", pts[i], pts[j])
			}
		}
	}
	est := m.Estimator()
	for i, cfg := range cfgs {
		q, h := est(cfg)
		if pts[i][0] != -q || pts[i][1] != h {
			t.Fatalf("payload %v does not reproduce its archived point %v", cfg, pts[i])
		}
	}
	optimal := refExhaustive(s, m.Estimator())
	for i := range pts {
		if !optimal.Covered(pts[i]) {
			t.Fatalf("archived point %v not covered by the optimal front", pts[i])
		}
	}
}

// TestNSGA2Cancellation: a cancelled context abandons the run mid-search
// with the partial archive and the context error.
func TestNSGA2Cancellation(t *testing.T) {
	m := naiveModels(syntheticSpace(3, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arch, err := RunEngine(ctx, "nsga2", m, SearchOptions{Evaluations: 5000, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if arch == nil {
		t.Fatal("partial archive must be non-nil")
	}
}

// panicQoR is a QoR regressor that panics on every prediction.
type panicQoR struct{}

func (panicQoR) Fit([][]float64, []float64) error { return nil }
func (panicQoR) Predict([]float64) float64        { panic("boom") }

// TestNSGA2PanicBecomesError: a model panicking on a scoring goroutine
// comes back from RunEngine as one error naming the panic — not a crashed
// process — and leaves no scoring goroutine behind.
func TestNSGA2PanicBecomesError(t *testing.T) {
	base := runtime.NumGoroutine()
	m := &Models{QoR: panicQoR{}, HW: &NaiveArea{}, Space: syntheticSpace(3, 6)}
	for _, procs := range []int{1, 4, 0} {
		var arch *pareto.Archive[[]int]
		var err error
		withGOMAXPROCS(procs, func() {
			arch, err = RunEngine(context.Background(), "nsga2", m, SearchOptions{Evaluations: 500, Seed: 1})
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: a panicking model returned no error", procs)
		}
		if got := strings.Count(err.Error(), "boom"); !strings.Contains(err.Error(), "panic") || got != 1 {
			t.Fatalf("GOMAXPROCS %d: err = %q, want the panic named once", procs, err)
		}
		if arch == nil {
			t.Fatalf("GOMAXPROCS %d: partial archive must be non-nil", procs)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNSGA2Progress: the Progress callback reports a monotone evaluation
// count ending exactly at the budget.
func TestNSGA2Progress(t *testing.T) {
	m := naiveModels(syntheticSpace(3, 6))
	last, calls := 0, 0
	_, err := RunEngine(context.Background(), "nsga2", m, SearchOptions{
		Evaluations: 1000, Seed: 1, Population: 32,
		Progress: func(done, total int) {
			if total != 1000 || done < last || done > total {
				t.Fatalf("bad progress (%d, %d) after %d", done, total, last)
			}
			last = done
			calls++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 1000 || calls < 2 {
		t.Fatalf("progress ended at %d after %d calls", last, calls)
	}
}

// TestSearchOptionsValidation pins the zero-means-default contract:
// negative fields surface as *OptionError naming the field, from every
// engine; zero selects the default.
func TestSearchOptionsValidation(t *testing.T) {
	m := naiveModels(syntheticSpace(2, 3))
	cases := []struct {
		field string
		opt   SearchOptions
	}{
		{"Evaluations", SearchOptions{Evaluations: -1}},
		{"Stagnation", SearchOptions{Stagnation: -5}},
		{"Population", SearchOptions{Population: -2}},
	}
	for _, name := range SearchEngines() {
		for _, tc := range cases {
			arch, err := RunEngine(context.Background(), name, m, tc.opt)
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Field != tc.field {
				t.Fatalf("%s/%s: err = %v, want *OptionError for the field", name, tc.field, err)
			}
			if arch == nil || arch.Len() != 0 {
				t.Fatalf("%s/%s: invalid options must yield an empty archive", name, tc.field)
			}
		}
	}
	// Zero means default, not zero budget.
	opt, err := SearchOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Evaluations != 10000 || opt.Stagnation != 50 || opt.Population != 64 {
		t.Fatalf("defaults = %+v", opt)
	}
}
