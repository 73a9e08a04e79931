package accel

import "autoax/internal/obs"

// Process-wide mirrors of the compiled-program counters.  Each
// Evaluator keeps its own exact stats (ProgramCacheStats); these
// aggregate across every evaluator in the process so the /v1/metrics
// snapshot covers compiles and the program directory without
// enumerating evaluators.
var (
	// progHits counts netlists loaded from a program directory, the only
	// way an evaluation skips synthesis; progMisses counts syntheses.
	progHits   = obs.Default().Counter("autoax_progcache_hits_total")
	progMisses = obs.Default().Counter("autoax_progcache_misses_total")

	// Program directory upkeep.
	progDiskSelfHeals = obs.Default().Counter("autoax_progcache_disk_selfheals_total")
	progDiskEvictions = obs.Default().Counter("autoax_progcache_disk_evictions_total")
	progDiskExpired   = obs.Default().Counter("autoax_progcache_disk_expired_total")
	// progDiskDropped counts writes dropped because the write-behind
	// queue was full.
	progDiskDropped  = obs.Default().Counter("autoax_progcache_disk_dropped_total")
	progKeyEvictions = obs.Default().Counter("autoax_progcache_key_evictions_total")

	// progCompile records the wall time of each miss's
	// Flatten+Simplify+Compile.  A hit's Compile is not timed, so the
	// histogram stays the per-miss cost.
	progCompile = obs.Default().Histogram("autoax_progcache_compile_us", obs.DefaultLatencyBuckets)
)
