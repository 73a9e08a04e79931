package dse

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"autoax/internal/par"
	"autoax/internal/pareto"
)

// SearchOptions parameterizes the Pareto-construction searches.
//
// Numeric fields follow a zero-means-default contract at the Engine
// boundary: leaving a field zero selects the documented default, so an
// explicit zero budget is unrepresentable by design.  Negative values are
// invalid and surface as *OptionError from Engine.Run and RunEngine, with
// an empty archive.
type SearchOptions struct {
	// Evaluations bounds the number of estimator calls (the paper's
	// termination condition).  0 means 10000.
	Evaluations int
	// Stagnation is the restart threshold k of Algorithm 1 (paper: 50).
	// 0 means 50.  Population engines ignore it.
	Stagnation int
	// Population is the generation size of population engines (nsga2).
	// 0 means 64.  Point-based engines ignore it.
	Population int
	// Seed makes runs reproducible: an engine run is a pure function of
	// (models, engine name, Seed, budget).
	Seed int64
	// Progress, when set, is called from the search goroutine with the
	// number of estimator evaluations performed so far and the total
	// budget — at every context checkpoint (ctxCheckStride evaluations
	// for the point searches, every generation for population engines)
	// and once on completion.  It observes the search without perturbing
	// it: the trajectory, rng draws and archive are identical with or
	// without a callback.
	Progress func(done, total int)
}

// OptionError reports a SearchOptions field that violates the
// zero-means-default contract (a negative value).
type OptionError struct {
	Field string
	Value int
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("dse: SearchOptions.%s must be >= 0 (0 means default), got %d", e.Field, e.Value)
}

func (o SearchOptions) withDefaults() (SearchOptions, error) {
	switch {
	case o.Evaluations < 0:
		return o, &OptionError{"Evaluations", o.Evaluations}
	case o.Stagnation < 0:
		return o, &OptionError{"Stagnation", o.Stagnation}
	case o.Population < 0:
		return o, &OptionError{"Population", o.Population}
	}
	if o.Stagnation == 0 {
		o.Stagnation = 50
	}
	if o.Evaluations == 0 {
		o.Evaluations = 10000
	}
	if o.Population == 0 {
		o.Population = 64
	}
	return o, nil
}

// point converts an estimate to the minimized objective vector (−QoR, hw).
func point(qor, hw float64) pareto.Point { return pareto.Point{-qor, hw} }

// ctxCheckStride is how many estimator evaluations the hill climb and the
// random search run between context checks — cheap relative to an
// estimator call yet frequent enough that cancellation lands within
// microseconds.
const ctxCheckStride = 1024

// randomSearch is the paper's RS baseline and the body of the "random"
// engine: uniform random configurations, each drawn, estimated and offered
// to the Pareto archive in draw order.  The draw is made into a reused
// buffer and only configurations the archive accepts are copied out.
// Cancellation and progress are checked every ctxCheckStride estimates,
// which consumes no rng draws.
func randomSearch(ctx context.Context, s Space, est Estimator, opt SearchOptions) (*pareto.Archive[[]int], error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return &pareto.Archive[[]int]{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	archive := &pareto.Archive[[]int]{}
	cfg := make([]int, len(s))
	for evals := 0; evals < opt.Evaluations; evals++ {
		if evals > 0 && evals%ctxCheckStride == 0 {
			if opt.Progress != nil {
				opt.Progress(evals, opt.Evaluations)
			}
			if err := ctx.Err(); err != nil {
				return archive, err
			}
		}
		s.RandomConfigInto(rng, cfg)
		if pt := point(est(cfg)); !archive.Covered(pt) {
			archive.Insert(pt, append([]int(nil), cfg...))
		}
	}
	if opt.Progress != nil {
		opt.Progress(opt.Evaluations, opt.Evaluations)
	}
	return archive, nil
}

// ExhaustiveLimit caps the space size Exhaustive will enumerate.
const ExhaustiveLimit = 5e7

// Exhaustive enumerates the whole configuration space — the optimal
// Pareto front of Table 4, for spaces within ExhaustiveLimit.
//
// The linearized odometer keyspace of m.Space is split into GOMAXPROCS
// contiguous ranges, enumerated on par.Each.  Each range gets a private
// m.Estimator() — an Estimator is not safe for concurrent use — and a
// private sub-archive, and the sub-archives are merged in keyspace
// order.  The result (points and payloads, including which of two
// equal-scoring configurations is kept: the enumeration-earlier one) is
// therefore identical to a sequential enumeration at every GOMAXPROCS.
// A panic in an estimator is returned as an error.
func Exhaustive(m *Models) (*pareto.Archive[[]int], error) {
	s := m.Space
	n := s.NumConfigs()
	if n > ExhaustiveLimit {
		return nil, fmt.Errorf("dse: space of %.3g configurations exceeds the exhaustive limit %.3g", n, ExhaustiveLimit)
	}
	total := int(n)
	if total <= 0 { // an op with an empty library: nothing to enumerate
		return &pareto.Archive[[]int]{}, nil
	}
	shards := min(runtime.GOMAXPROCS(0), total)
	archives := make([]*pareto.Archive[[]int], shards)
	errs := par.Each(context.Background(), shards, func(w int) error {
		// 64-bit intermediates: total*w can exceed a 32-bit int for
		// near-limit spaces at high shard counts.
		lo := int(int64(total) * int64(w) / int64(shards))
		hi := int(int64(total) * int64(w+1) / int64(shards))
		archives[w] = exhaustiveRange(s, m.Estimator(), lo, hi)
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	// Merge in keyspace order: every shard archive is internally
	// non-dominated, so inserting its members into the first shard's
	// archive reproduces the global front, with equal-point ties resolved
	// to the enumeration-earliest configuration exactly as a sequential
	// run would.
	merged := archives[0]
	for _, a := range archives[1:] {
		pts, payloads := a.Points(), a.Payloads()
		for i := range pts {
			merged.Insert(pts[i], payloads[i])
		}
	}
	return merged, nil
}

// exhaustiveRange enumerates linear odometer indices [lo, hi) of the
// configuration space (index 0 is the fastest-counting digit) into a fresh
// archive, estimating the odometer in place and offering each estimate to
// the archive in enumeration order.  Accepted configurations are archived
// as copies — the archive must never alias the odometer.
func exhaustiveRange(s Space, est Estimator, lo, hi int) *pareto.Archive[[]int] {
	archive := &pareto.Archive[[]int]{}
	cur := make([]int, len(s))
	rem := lo
	for i := range cur {
		cur[i] = rem % len(s[i])
		rem /= len(s[i])
	}
	for idx := lo; idx < hi; idx++ {
		if pt := point(est(cur)); !archive.Covered(pt) {
			archive.Insert(pt, append([]int(nil), cur...))
		}
		for i := range cur { // odometer increment
			cur[i]++
			if cur[i] < len(s[i]) {
				break
			}
			cur[i] = 0
		}
	}
	return archive
}

// UniformSelection is the paper's manual baseline: for a grid of `levels`
// target error levels ε, every operation independently picks the library
// circuit whose WMED relative to the operation's output range is closest
// to ε.  Duplicate configurations are dropped; the result is ordered by ε.
func UniformSelection(s Space, levels int) [][]int {
	// The grid spans the observed relative-WMED range of the space.
	maxRel := 0.0
	for _, lib := range s {
		for _, c := range lib {
			if r := c.RelWMED(); r > maxRel {
				maxRel = r
			}
		}
	}
	var out [][]int
	seen := map[string]bool{}
	for l := 0; l < levels; l++ {
		eps := 0.0
		if levels > 1 {
			eps = maxRel * float64(l) / float64(levels-1)
		}
		cfg := make([]int, len(s))
		for k, lib := range s {
			best, bestDiff := 0, -1.0
			for i, c := range lib {
				d := c.RelWMED() - eps
				if d < 0 {
					d = -d
				}
				if bestDiff < 0 || d < bestDiff {
					best, bestDiff = i, d
				}
			}
			cfg[k] = best
		}
		key := fmt.Sprint(cfg)
		if !seen[key] {
			seen[key] = true
			out = append(out, cfg)
		}
	}
	return out
}

// SortArchive orders an archive's configurations by the first objective
// (descending QoR) for stable presentation, returning parallel slices.
func SortArchive(a *pareto.Archive[[]int]) (pts []pareto.Point, cfgs [][]int) {
	idx := make([]int, a.Len())
	for i := range idx {
		idx[i] = i
	}
	p := a.Points()
	c := a.Payloads()
	sort.Slice(idx, func(x, y int) bool { return p[idx[x]][0] < p[idx[y]][0] })
	for _, i := range idx {
		pts = append(pts, p[i])
		cfgs = append(cfgs, c[i])
	}
	return pts, cfgs
}
