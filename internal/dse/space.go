// Package dse implements the model-based design-space exploration of
// autoAx (paper §2.4): the stochastic hill-climbing Pareto construction
// (Algorithm 1), the random-sampling and uniform-selection baselines,
// exhaustive enumeration for ground truth, and the feature extraction and
// model training that turn characterized circuits into fast QoR/cost
// estimators.
package dse

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/par"
)

// Space is the configuration space: one reduced library RL_k per operation
// node of the accelerator (in Graph.OpNodes order).  A configuration is an
// index into each library.
type Space [][]*acl.Circuit

// NumConfigs returns the size of the configuration space as a float64
// (spaces like the paper's 10⁶³ overflow integers long before float64).
func (s Space) NumConfigs() float64 {
	n := 1.0
	for _, lib := range s {
		n *= float64(len(lib))
	}
	return n
}

// Validate checks that every operation has at least one circuit.
func (s Space) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("dse: empty space")
	}
	for i, lib := range s {
		if len(lib) == 0 {
			return fmt.Errorf("dse: operation %d has an empty library", i)
		}
	}
	return nil
}

// Circuits materializes a configuration as the circuit list expected by
// accel.Flatten.
func (s Space) Circuits(cfg []int) accel.Configuration {
	out := make(accel.Configuration, len(s))
	for i, idx := range cfg {
		out[i] = s[i][idx]
	}
	return out
}

// RandomConfig draws a uniform random configuration.
func (s Space) RandomConfig(rng *rand.Rand) []int {
	return s.RandomConfigInto(rng, make([]int, len(s)))
}

// RandomConfigInto is RandomConfig writing into dst (length len(s)) — the
// allocation-free variant used by the random search and nsga2.  It consumes
// exactly the same rng draws as RandomConfig.
func (s Space) RandomConfigInto(rng *rand.Rand, dst []int) []int {
	dst = dst[:len(s)]
	for i, lib := range s {
		dst[i] = rng.Intn(len(lib))
	}
	return dst
}

// Neighbor returns a copy of cfg with one randomly chosen operation
// re-assigned to a random different circuit (the GetNeighbour move of
// Algorithm 1).  An operation whose library holds a single circuit cannot
// move, so a draw landing on one resamples among the multi-circuit
// operations — returning the configuration unchanged would burn an
// estimator evaluation and spuriously advance Algorithm 1's stagnation
// counter.  Only when no operation has an alternative is cfg returned
// unchanged.
func (s Space) Neighbor(cfg []int, rng *rand.Rand) []int {
	next := append([]int(nil), cfg...)
	if k, nv, ok := s.neighborMove(cfg, rng); ok {
		next[k] = nv
	}
	return next
}

// neighborMove draws the one-operation move Neighbor applies, without
// building the neighbouring configuration: operation k re-assigned to
// circuit nv.  ok is false when no operation has an alternative circuit
// (the configuration cannot move).  It consumes exactly the same rng draws
// as Neighbor, which the incremental hill climb relies on for bit-identical
// trajectories.
func (s Space) neighborMove(cfg []int, rng *rand.Rand) (k, nv int, ok bool) {
	k = rng.Intn(len(s))
	if len(s[k]) == 1 {
		movable := 0
		for _, lib := range s {
			if len(lib) > 1 {
				movable++
			}
		}
		if movable == 0 {
			return 0, 0, false
		}
		j := rng.Intn(movable)
		for i, lib := range s {
			if len(lib) > 1 {
				if j == 0 {
					k = i
					break
				}
				j--
			}
		}
	}
	nv = rng.Intn(len(s[k]) - 1)
	if nv >= cfg[k] {
		nv++
	}
	return k, nv, true
}

// RandomConfigs draws n configurations deterministically from the seed.
func (s Space) RandomConfigs(n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = s.RandomConfig(rng)
	}
	return out
}

// QoRFeatures returns the model input for QoR estimation: the WMED of each
// selected circuit (paper §4.1.2).
func (s Space) QoRFeatures(cfg []int) []float64 {
	return s.QoRFeaturesInto(cfg, make([]float64, len(s)))
}

// QoRFeaturesInto writes the QoR features into dst (length ≥ len(s)) and
// returns dst[:len(s)] — the allocation-free variant the estimator hot
// path uses.
func (s Space) QoRFeaturesInto(cfg []int, dst []float64) []float64 {
	dst = dst[:len(s)]
	for i, idx := range cfg {
		dst[i] = s[i][idx].WMED
	}
	return dst
}

// HWFeatures returns the model input for hardware estimation: the areas of
// all selected circuits, then their powers, then their delays (paper
// §4.1.2: omitting power and delay loses ~2% fidelity).
func (s Space) HWFeatures(cfg []int) []float64 {
	return s.HWFeaturesInto(cfg, make([]float64, 3*len(s)))
}

// HWFeaturesInto writes the hardware features into dst (length ≥ 3·len(s))
// and returns dst[:3·len(s)] without allocating.
func (s Space) HWFeaturesInto(cfg []int, dst []float64) []float64 {
	n := len(s)
	dst = dst[:3*n]
	for i, idx := range cfg {
		c := s[i][idx]
		dst[i] = c.Area
		dst[n+i] = c.Power
		dst[2*n+i] = c.Delay
	}
	return dst
}

// layout describes features to ml.RandomForest.LeafTables: feature j
// belongs to operation j mod n and, under circuit c, is field j/n of that
// circuit — the order QoRFeaturesInto (WMED) and HWFeaturesInto (area,
// power, delay) write.
func (s Space) layout(fields ...func(*acl.Circuit) float64) (op []int, values [][]float64) {
	for _, field := range fields {
		for k, lib := range s {
			v := make([]float64, len(lib))
			for c, ci := range lib {
				v[c] = field(ci)
			}
			op, values = append(op, k), append(values, v)
		}
	}
	return op, values
}

// EvaluateAll precisely evaluates every configuration (simulation +
// synthesis) — the hot loop of paper Steps 2 and 3, embarrassingly
// parallel per configuration.  Configurations run on par.Each, at most
// min(GOMAXPROCS, len(cfgs)) at a time: each evaluation borrows an
// evaluator from a pool of that many — ev plus ev.Clone()s, sharing the
// immutable precomputed state and each owning its scratch — so no
// evaluator is ever used by two goroutines at once.  Result i is
// configuration i's at every GOMAXPROCS.
//
// onDone, when non-nil, is called once after each configuration finishes
// — concurrently, so it must be safe for concurrent use (an atomic counter
// feeding a progress display is the intended shape).  It observes the
// batch without perturbing it.
//
// A failing configuration cancels the batch.  par.Each runs every index
// below a failure to completion, so the error returned is the
// lowest-index one — the one a sequential loop would hit — at every
// GOMAXPROCS.  When the caller's context ends first, its bare error is
// returned.
func EvaluateAll(ctx context.Context, ev *accel.Evaluator, s Space, cfgs [][]int, onDone func()) ([]accel.Result, error) {
	// One evaluator per goroutine par.Each starts, so a receive from the
	// pool never waits.
	evs := max(1, min(runtime.GOMAXPROCS(0), len(cfgs)))
	// Clone every evaluator before any evaluation starts: Clone copies the
	// evaluator struct, so cloning ev while it evaluates would race.
	pool := make(chan *accel.Evaluator, evs)
	pool <- ev
	for w := 1; w < evs; w++ {
		pool <- ev.Clone()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]accel.Result, len(cfgs))
	errs := par.Each(ctx, len(cfgs), func(i int) error {
		e := <-pool
		defer func() { pool <- e }()
		r, err := e.Evaluate(s.Circuits(cfgs[i]))
		if err != nil {
			cancel()
			return fmt.Errorf("dse: evaluating configuration %d: %w", i, err)
		}
		out[i] = r
		preciseEvals.Inc()
		if onDone != nil {
			onDone()
		}
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstError returns the lowest-index non-nil error of a par.Each result.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
