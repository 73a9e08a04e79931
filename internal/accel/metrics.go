package accel

import "autoax/internal/obs"

// Process-wide mirrors of the compiled-program cache counters.  Each
// Evaluator's cache keeps its own exact stats (ProgramCacheStats); these
// aggregate across every cache in the process so the /v1/metrics snapshot
// covers the compiled-program tier without enumerating evaluators.
var (
	progHits      = obs.Default().Counter("autoax_progcache_hits_total")
	progMisses    = obs.Default().Counter("autoax_progcache_misses_total")
	progCoalesced = obs.Default().Counter("autoax_progcache_coalesced_total")
	progEvictions = obs.Default().Counter("autoax_progcache_evictions_total")

	// Persistent (disk) tier of the compiled-program cache.
	progDiskHits      = obs.Default().Counter("autoax_progcache_disk_hits_total")
	progDiskMisses    = obs.Default().Counter("autoax_progcache_disk_misses_total")
	progDiskSelfHeals = obs.Default().Counter("autoax_progcache_disk_selfheals_total")
	progDiskEvictions = obs.Default().Counter("autoax_progcache_disk_evictions_total")
	progDiskExpired   = obs.Default().Counter("autoax_progcache_disk_expired_total")
	// progDiskDropped counts writes dropped because the write-behind
	// queue was full.
	progDiskDropped  = obs.Default().Counter("autoax_progcache_disk_dropped_total")
	progKeyEvictions = obs.Default().Counter("autoax_progcache_key_evictions_total")

	// progCompile records the wall time of each cache-miss build
	// (Flatten+Simplify+Compile), the dominant cost the cache exists to
	// avoid.
	progCompile = obs.Default().Histogram("autoax_progcache_compile_us", obs.DefaultLatencyBuckets)
)
