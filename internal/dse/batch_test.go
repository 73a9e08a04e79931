package dse

import (
	"fmt"
	"math/rand"
	"testing"

	"autoax/internal/pareto"
)

// refLinearArchive is the pre-staircase archive (linear scans, insertion
// order with compacting evictions) — the reference the PR 5 search paths
// must stay bit-identical to.
type refLinearArchive struct {
	pts      []pareto.Point
	payloads [][]int
}

func (a *refLinearArchive) covered(p pareto.Point) bool {
	for _, q := range a.pts {
		if pareto.Dominates(q, p) || (q[0] == p[0] && q[1] == p[1]) {
			return true
		}
	}
	return false
}

func (a *refLinearArchive) insert(p pareto.Point, payload []int) bool {
	if a.covered(p) {
		return false
	}
	keep := 0
	for i := range a.pts {
		if !pareto.Dominates(p, a.pts[i]) {
			a.pts[keep] = a.pts[i]
			a.payloads[keep] = a.payloads[i]
			keep++
		}
	}
	a.pts = a.pts[:keep]
	a.payloads = a.payloads[:keep]
	a.pts = append(a.pts, append(pareto.Point(nil), p...))
	a.payloads = append(a.payloads, payload)
	return true
}

// refHillClimb is the pre-PR5 Algorithm 1 implementation, frozen: generic
// estimator calls, linear archive, restarts drawing from the archive's
// storage order.
func refHillClimb(s Space, est Estimator, opt SearchOptions) *refLinearArchive {
	opt, _ = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	archive := &refLinearArchive{}
	parent := s.RandomConfig(rng)
	q, h := est(parent)
	archive.insert(point(q, h), parent)
	stagnant, restarts := 0, 0
	for evals := 1; evals < opt.Evaluations; evals++ {
		c := s.Neighbor(parent, rng)
		q, h := est(c)
		if archive.insert(point(q, h), c) {
			parent = c
			stagnant = 0
		} else {
			stagnant++
			if stagnant >= opt.Stagnation {
				restarts++
				if restarts%2 == 1 {
					parent = append([]int(nil), archive.payloads[rng.Intn(len(archive.payloads))]...)
				} else {
					parent = s.RandomConfig(rng)
				}
				stagnant = 0
			}
		}
	}
	return archive
}

func archiveKeySet(t *testing.T, pts []pareto.Point, payloads [][]int) map[string]bool {
	t.Helper()
	set := make(map[string]bool, len(pts))
	for i := range pts {
		k := fmt.Sprintf("%v|%v", pts[i], payloads[i])
		if set[k] {
			t.Fatalf("duplicate archive entry %s", k)
		}
		set[k] = true
	}
	return set
}

func requireSetEqual(t *testing.T, label string, gotP []pareto.Point, gotC [][]int, wantP []pareto.Point, wantC [][]int) {
	t.Helper()
	if len(gotP) != len(wantP) {
		t.Fatalf("%s: archive size %d, reference %d", label, len(gotP), len(wantP))
	}
	got := archiveKeySet(t, gotP, gotC)
	for i := range wantP {
		k := fmt.Sprintf("%v|%v", wantP[i], wantC[i])
		if !got[k] {
			t.Fatalf("%s: reference entry %s missing", label, k)
		}
	}
}

// TestModelsHillClimbMatchesGeneric pins the acceptance criterion: with
// fixed seeds the incremental models-backed climb and the frozen generic
// estimator climb (refHillClimb) produce set-equal archives (same points,
// same payloads).
func TestModelsHillClimbMatchesGeneric(t *testing.T) {
	m := trainedModels(t, 4, 7)
	for seed := int64(0); seed < 8; seed++ {
		opt := SearchOptions{Evaluations: 4000, Stagnation: 25, Seed: seed}
		ref := refHillClimb(m.Space, m.Estimator(), opt)
		inc := mustRun(t, "hillclimb", m, opt)
		requireSetEqual(t, "incremental vs frozen", inc.Points(), inc.Payloads(), ref.pts, ref.payloads)
	}
}

// TestModelsHillClimbNonForest covers the fullPredictor fallback: naive
// (non-forest) engines must take the same trajectories too.
func TestModelsHillClimbNonForest(t *testing.T) {
	s := syntheticSpace(3, 6)
	m := &Models{QoR: NaiveSSIM{}, HW: &NaiveArea{}, Space: s}
	if err := m.HW.Fit([][]float64{s.HWFeatures(make([]int, len(s)))}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		opt := SearchOptions{Evaluations: 2000, Seed: seed}
		ref := refHillClimb(s, m.Estimator(), opt)
		inc := mustRun(t, "hillclimb", m, opt)
		requireSetEqual(t, "non-forest incremental vs frozen", inc.Points(), inc.Payloads(), ref.pts, ref.payloads)
	}
}

// TestRandomSearchBatchMatchesScalar pins the "random" engine to the
// frozen scalar random search with the same seed.
func TestRandomSearchBatchMatchesScalar(t *testing.T) {
	m := trainedModels(t, 4, 7)
	for seed := int64(0); seed < 5; seed++ {
		// Budgets around ctxCheckStride (1024) cover the checkpoint
		// boundaries.
		for _, evals := range []int{1, 100, 1023, 1024, 1025, 2049} {
			opt := SearchOptions{Evaluations: evals, Seed: seed}
			want := refRandomSearch(m.Space, m.Estimator(), opt)
			got := mustRun(t, "random", m, opt)
			requireSetEqual(t, fmt.Sprintf("random search (evals=%d)", evals),
				got.Points(), got.Payloads(), want.Points(), want.Payloads())
		}
	}
}

// TestExhaustiveBatchMatchesScalar pins the exhaustive enumeration to the
// frozen scalar enumeration, sequentially and sharded (GOMAXPROCS 1 and
// 3).
func TestExhaustiveBatchMatchesScalar(t *testing.T) {
	m := trainedModels(t, 3, 7) // 343 configurations
	want := refExhaustive(m.Space, m.Estimator())
	for _, procs := range []int{1, 3} {
		var got *pareto.Archive[[]int]
		var err error
		withGOMAXPROCS(procs, func() { got, err = Exhaustive(m) })
		if err != nil {
			t.Fatal(err)
		}
		requireSetEqual(t, fmt.Sprintf("exhaustive (GOMAXPROCS=%d)", procs),
			got.Points(), got.Payloads(), want.Points(), want.Payloads())
	}
}
