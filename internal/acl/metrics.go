package acl

import "autoax/internal/obs"

// Characterization throughput metrics: one histogram sample per circuit
// characterized and the cumulative operand-pair count swept, so the
// pairs/sec rate of a library build is readable straight off a scrape.
// Builds characterize circuits concurrently, so the summed per-circuit
// time exceeds a build's wall time; autoax_acl_build_us records the
// latter, one sample per BuildContext call.
var (
	buildSpans        = obs.Default().Histogram("autoax_acl_build_us", obs.DefaultLatencyBuckets)
	characterizeSpans = obs.Default().Histogram("autoax_acl_characterize_us", obs.DefaultLatencyBuckets)
	characterized     = obs.Default().Counter("autoax_acl_characterized_total")
	characterizePairs = obs.Default().Counter("autoax_acl_characterize_pairs_total")
)
