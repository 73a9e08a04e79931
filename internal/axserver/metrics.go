package axserver

import (
	"fmt"
	"net/http"
	"time"

	"autoax/internal/obs"
)

// Job lifecycle metrics, process-wide.  Per-kind submission counters are
// resolved lazily (submissions are not a hot path); the latency
// histograms are shared across kinds — the kind split lives in the
// counters.
var (
	jobQueueWait  = obs.Default().Histogram("autoax_job_queue_wait_us", obs.DefaultLatencyBuckets)
	jobExec       = obs.Default().Histogram("autoax_job_exec_us", obs.DefaultLatencyBuckets)
	cacheSelfHeal = obs.Default().Counter("autoax_cache_selfheal_total")
	// libraryDecodes counts stored libraries decoded from their bytes;
	// decodeLibrary serves repeats from its memo without counting.
	libraryDecodes = obs.Default().Counter("autoax_library_decodes_total")
)

func jobsSubmitted(kind string) *obs.Counter {
	return obs.Default().Counter(fmt.Sprintf(`autoax_jobs_submitted_total{kind=%q}`, kind))
}

func jobsCompleted(state JobState) *obs.Counter {
	return obs.Default().Counter(fmt.Sprintf(`autoax_jobs_completed_total{state=%q}`, string(state)))
}

// jobsRejected counts admission-control rejections by reason:
// queue_full (bounds exceeded), draining (drain-then-stop shutdown),
// unavailable (pool closed).
func jobsRejected(reason string) *obs.Counter {
	return obs.Default().Counter(fmt.Sprintf(`autoax_jobs_rejected_total{reason=%q}`, reason))
}

// statusWriter captures the response status for the per-route counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route metrics: a request counter, a
// latency histogram, and per-status-class response counters.  All metrics
// are resolved once at mount time, so the request path records lock-free.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.Default().Counter(fmt.Sprintf(`autoax_http_requests_total{route=%q}`, route))
	lat := obs.Default().Histogram(fmt.Sprintf(`autoax_http_request_us{route=%q}`, route), obs.DefaultLatencyBuckets)
	var classes [6]*obs.Counter
	for c := 2; c <= 5; c++ {
		classes[c] = obs.Default().Counter(
			fmt.Sprintf(`autoax_http_responses_total{route=%q,code="%dxx"}`, route, c))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		span := obs.Default().StartSpanIn(lat)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		span.Finish()
		if c := sw.status / 100; c >= 2 && c <= 5 {
			classes[c].Inc()
		}
	}
}

// metricsSnapshot is the /v1/metrics payload: the process-wide registry
// overlaid with this server's own cache and job-state figures.  The
// overlay happens per request rather than in the shared registry, so
// multiple Server instances in one process (tests, embedded use) never
// fight over registry names.
func (s *Server) metricsSnapshot() obs.Snapshot {
	snap := obs.Default().Snapshot()
	cs := s.cache.Stats()
	snap.Counters[`autoax_cache_hits_total{tier="memory"}`] = cs.MemHits
	snap.Counters[`autoax_cache_hits_total{tier="disk"}`] = cs.DiskHits
	snap.Counters["autoax_cache_misses_total"] = cs.Misses
	snap.Counters["autoax_cache_coalesced_total"] = cs.Coalesced
	snap.Counters["autoax_cache_evictions_total"] = cs.Evictions
	snap.Gauges["autoax_cache_entries"] = float64(cs.Entries)
	snap.Gauges["autoax_cache_mem_bytes"] = float64(cs.MemBytes)
	snap.Gauges["autoax_queue_len"] = float64(s.pool.QueueLen())
	snap.Gauges["autoax_queue_bytes"] = float64(s.pool.QueueBytes())
	snap.Gauges["autoax_workers"] = float64(s.pool.Workers())
	if s.draining.Load() {
		snap.Gauges["autoax_draining"] = 1
	} else {
		snap.Gauges["autoax_draining"] = 0
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Counters["autoax_journal_appended_total"] = js.Appended
		snap.Counters["autoax_journal_completed_total"] = js.Completed
		snap.Counters["autoax_journal_replayed_total"] = js.Replayed
		snap.Counters["autoax_journal_selfheals_total"] = js.SelfHeals
	}
	for state, n := range s.manager.Counts() {
		snap.Gauges[fmt.Sprintf(`autoax_jobs{state=%q}`, string(state))] = float64(n)
	}
	snap.Gauges["autoax_uptime_seconds"] = time.Since(s.started).Seconds()
	return snap
}

// handleMetrics serves the metrics snapshot: JSON by default,
// ?format=prometheus for the text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
