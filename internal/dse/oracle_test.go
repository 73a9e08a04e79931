package dse

import (
	"math/rand"

	"autoax/internal/pareto"
)

// The frozen scalar oracles of the search paths.  Each is the plain
// one-configuration-at-a-time loop over an Estimator, without the
// engines' buffer reuse, sharding and checkpoints; the engines must stay
// set-equal to them.  They are
// test-only so the production code keeps one way to search and enumerate.

// refRandomSearch is the frozen scalar RS baseline: uniform random
// configurations from rand seeded with opt.Seed, each estimated alone and
// offered to the archive in draw order.
func refRandomSearch(s Space, est Estimator, opt SearchOptions) *pareto.Archive[[]int] {
	opt, _ = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	archive := &pareto.Archive[[]int]{}
	for evals := 0; evals < opt.Evaluations; evals++ {
		c := s.RandomConfig(rng)
		q, h := est(c)
		archive.Insert(point(q, h), c)
	}
	return archive
}

// refExhaustive is the frozen scalar sequential enumeration: every
// configuration in odometer order (operation 0 is the fastest-counting
// digit), each estimated alone and archived as a copy.
func refExhaustive(s Space, est Estimator) *pareto.Archive[[]int] {
	archive := &pareto.Archive[[]int]{}
	total := int(s.NumConfigs())
	cfg := make([]int, len(s))
	for idx := 0; idx < total; idx++ {
		q, h := est(cfg)
		if pt := point(q, h); !archive.Covered(pt) {
			archive.Insert(pt, append([]int(nil), cfg...))
		}
		for i := range cfg { // odometer increment
			cfg[i]++
			if cfg[i] < len(s[i]) {
				break
			}
			cfg[i] = 0
		}
	}
	return archive
}
