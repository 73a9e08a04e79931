package dse

import "autoax/internal/obs"

// Search-internals metrics.  The hill climb's inner loop runs at a few µs
// per iteration, so counters are accumulated in plain locals (climbStats)
// and flushed to the process registry only at the climb's context
// checkpoints and on return — the hot path itself performs no atomic
// operations for metrics.  Precise evaluation records directly: one
// atomic add against milliseconds of work.
var (
	climbIterations = obs.Default().Counter("autoax_dse_climb_iterations_total")
	climbProposals  = obs.Default().Counter("autoax_dse_climb_proposals_total")
	climbMemoHits   = obs.Default().Counter("autoax_dse_climb_memo_hits_total")
	climbInserts    = obs.Default().Counter("autoax_dse_climb_inserts_total")
	climbEvictions  = obs.Default().Counter("autoax_dse_climb_evictions_total")
	climbRestarts   = obs.Default().Counter("autoax_dse_climb_restarts_total")
	preciseEvals    = obs.Default().Counter("autoax_dse_precise_evals_total")

	// NSGA-II engine internals, mirroring the climb instrumentation:
	// counters accumulate in nsga2Stats locals and flush at generation
	// boundaries; the per-generation non-dominated-sort span records
	// directly (one histogram observation per generation).
	nsga2Generations = obs.Default().Counter("autoax_dse_nsga2_generations_total")
	nsga2Inserts     = obs.Default().Counter("autoax_dse_nsga2_inserts_total")
	nsga2Evictions   = obs.Default().Counter("autoax_dse_nsga2_evictions_total")
	nsga2SortTime    = obs.Default().Histogram("autoax_dse_nsga2_sort_us", obs.DefaultLatencyBuckets)
)

// climbStats locally accumulates one climb's counters between flushes.
type climbStats struct {
	iters, proposals, memoHits, inserts, evictions, restarts int64
}

// flush publishes and resets the accumulated deltas, so periodic flushes
// keep the process counters advancing while a long climb is in flight.
func (s *climbStats) flush() {
	if s.iters > 0 {
		climbIterations.Add(s.iters)
	}
	if s.proposals > 0 {
		climbProposals.Add(s.proposals)
	}
	if s.memoHits > 0 {
		climbMemoHits.Add(s.memoHits)
	}
	if s.inserts > 0 {
		climbInserts.Add(s.inserts)
	}
	if s.evictions > 0 {
		climbEvictions.Add(s.evictions)
	}
	if s.restarts > 0 {
		climbRestarts.Add(s.restarts)
	}
	*s = climbStats{}
}

// nsga2Stats locally accumulates one nsga2 run's counters between flushes
// (once per generation and on return).
type nsga2Stats struct {
	generations, inserts, evictions int64
}

func (s *nsga2Stats) flush() {
	if s.generations > 0 {
		nsga2Generations.Add(s.generations)
	}
	if s.inserts > 0 {
		nsga2Inserts.Add(s.inserts)
	}
	if s.evictions > 0 {
		nsga2Evictions.Add(s.evictions)
	}
	*s = nsga2Stats{}
}
