package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"autoax/internal/axserver"
	"autoax/internal/core"
	"autoax/internal/obs"
)

// snapshot is the program's externally visible state at one instant:
// GET /v1/metrics, GET /v1/stats and the process's runtime/metrics.
type snapshot struct {
	m      obs.Snapshot
	st     axserver.Stats
	allocs uint64 // cumulative heap bytes allocated
	gcs    uint64 // completed GC cycles
	err    error
}

func takeSnapshot(ctx context.Context, e *env) snapshot {
	var s snapshot
	if s.m, s.err = e.client.Metrics(ctx); s.err != nil {
		return s
	}
	if s.st, s.err = e.client.Stats(ctx); s.err != nil {
		return s
	}
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	s.allocs, s.gcs = rs[0].Value.Uint64(), rs[1].Value.Uint64()
	return s
}

// metricDelta is the change of the /v1/metrics counters and histogram
// sums/counts between two snapshots.
type metricDelta struct {
	counters map[string]int64
	sums     map[string]int64 // histogram sums (µs for *_us series)
	counts   map[string]int64 // histogram sample counts
}

func diff(a, b snapshot) *metricDelta {
	d := &metricDelta{counters: map[string]int64{}, sums: map[string]int64{}, counts: map[string]int64{}}
	for k, v := range b.m.Counters {
		d.counters[k] = v - a.m.Counters[k]
	}
	for k, h := range b.m.Histograms {
		d.sums[k] = h.Sum - a.m.Histograms[k].Sum
		d.counts[k] = h.Count - a.m.Histograms[k].Count
	}
	return d
}

func stageSeries(stage string) string { return `autoax_pipeline_stage_us{stage="` + stage + `"}` }

const characterizeSeries = "autoax_acl_characterize_us"

// layerSeconds is the job's time inside pipeline stages and circuit
// characterization, from its own metric deltas.
func (d *metricDelta) layerSeconds() float64 {
	us := d.sums[characterizeSeries]
	for _, st := range core.StageOrder {
		us += d.sums[stageSeries(st)]
	}
	return float64(us) / 1e6
}

// phase is everything the measured phase produced.
type phase struct {
	warm   []*jobRun // the last set-up's warm-ups
	runs   []*jobRun
	wall   time.Duration
	begin  snapshot
	end    snapshot
	setups []float64
	rssMB  []float64 // resident set size sampled through the phase
	peakMB float64   // VmHWM over the phase
	probe  *speedProbe
	tr     *tracer
}

func (p phase) succeeded() []*jobRun {
	var out []*jobRun
	for _, r := range p.runs {
		if r.ok() {
			out = append(out, r)
		}
	}
	return out
}

func (p phase) lateP99() time.Duration {
	var late []float64
	for _, r := range p.runs {
		late = append(late, float64(r.late))
	}
	return time.Duration(quantile(late, 0.99))
}

// endToEndMetrics are the numbers a user of the service sees.  front_hv
// scores the answers to the warm-ups, which are the same reference
// requests in every run, so it is deterministic and seed-independent.
func (p phase) endToEndMetrics() map[string]metric {
	ok := p.succeeded()
	var hv []float64
	for _, r := range p.warm {
		if r.hasHV {
			hv = append(hv, r.hv)
		}
	}
	return map[string]metric{
		"setup_s":            {quantile(p.setups, 0.5), "s"},
		"norm_latency_p50_s": {quantile(latencies(ok, false, (*jobRun).normLatency), 0.5), "s"},
		"rss_mb":             {mean(p.rssMB), "MB"},
		"front_hv":           {mean(hv), "ratio"},
	}
}

func rawLatency(r *jobRun) float64 { return r.latency().Seconds() }

// latencies returns lat of the runs the server served from its cache
// (cached) or computed (!cached).
func latencies(runs []*jobRun, cached bool, lat func(*jobRun) float64) []float64 {
	var out []float64
	for _, r := range runs {
		if r.info.Cached == cached {
			out = append(out, lat(r))
		}
	}
	return out
}

// layerMetrics are the per-layer numbers of a traced run: job timestamps,
// /v1/stats and /v1/metrics deltas over the phase, runtime/metrics, and
// the harness's own counters.  Per-job figures divide by the measured
// jobs that succeeded.
func (p phase) layerMetrics() map[string]metric {
	ok := p.succeeded()
	n := math.Max(float64(len(ok)), 1)
	d := diff(p.begin, p.end)
	sec := func(series string) float64 { return float64(d.sums[series]) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var queueMS, rttMS, execS, overheadS, fidelity []float64
	evalExecS := 0.0
	polls := 0
	for _, r := range p.runs {
		polls += r.polls
		if !r.ack.IsZero() {
			rttMS = append(rttMS, float64(r.ack.Sub(r.sent))/1e6)
		}
	}
	for _, r := range ok {
		queueMS = append(queueMS, float64(r.info.Started.Sub(r.info.Created))/1e6)
		if r.info.Kind == "pipeline" {
			fidelity = append(fidelity, r.fidelity)
		}
		if r.info.Cached {
			continue
		}
		exec := r.info.Ended.Sub(r.info.Started).Seconds()
		execS = append(execS, exec)
		if r.info.Kind == "evaluate" {
			evalExecS += exec
		}
		if r.delta != nil {
			overheadS = append(overheadS, exec-r.delta.layerSeconds())
		}
	}

	st0, st1 := p.begin.st, p.end.st
	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	lookups := hits + float64(st1.Cache.Misses-st0.Cache.Misses)
	journal := 0.0
	if st0.Journal != nil && st1.Journal != nil {
		journal = float64(st1.Journal.Appended - st0.Journal.Appended + st1.Journal.Completed - st0.Journal.Completed)
	}

	charS := sec(characterizeSeries)
	circuits := float64(d.counts[characterizeSeries])
	trainS := sec(stageSeries(core.StageTrain)) / n
	fits := float64(d.counters[`autoax_pipeline_stage_items_total{stage="train"}`]) / n
	evals := float64(d.counters["autoax_dse_precise_evals_total"])
	evalS := sec(stageSeries(core.StageSamples)) + sec(stageSeries(core.StageFinalize)) + evalExecS
	progHits := float64(d.counters["autoax_progcache_hits_total"])
	progMisses := float64(d.counters["autoax_progcache_misses_total"])

	traceOverhead, untraced := 0.0, p.wall
	if p.tr != nil {
		untraced -= p.tr.spent
		traceOverhead = 100 * ratio(p.tr.spent.Seconds(), untraced.Seconds())
	}

	m := map[string]metric{
		"axclient.submit_rtt_ms_p50":      {quantile(rttMS, 0.5), "ms"},
		"axserver.queue_wait_ms_p50":      {quantile(queueMS, 0.5), "ms"},
		"axserver.queue_wait_ms_p90":      {quantile(queueMS, 0.9), "ms"},
		"axserver.exec_s_p50":             {quantile(execS, 0.5), "s"},
		"axserver.cached_latency_ms_p50":  {1e3 * quantile(latencies(ok, true, rawLatency), 0.5), "ms"},
		"axserver.exec_overhead_s_p50":    {quantile(overheadS, 0.5), "s"},
		"axserver.cache_hit_ratio":        {ratio(hits, lookups), "ratio"},
		"axserver.cache_hits":             {hits, "count"},
		"axserver.cache_lookups":          {lookups, "count"},
		"axserver.journal_records":        {journal, "count"},
		"acl.characterize_s":              {charS / n, "s"},
		"acl.characterize_ms_per_circuit": {1e3 * ratio(charS, circuits), "ms"},
		"acl.pairs_per_s":                 {ratio(float64(d.counters["autoax_acl_characterize_pairs_total"]), charS), "1/s"},
		"acl.circuits_per_library":        {circuits / n, "count"},
		"accel.precise_evals":             {evals / n, "count"},
		"accel.eval_ms_per_config":        {1e3 * ratio(evalS, evals), "ms"},
		"accel.progcache_hit_ratio":       {ratio(progHits, progHits+progMisses), "ratio"},
		"accel.compile_ms_per_miss": {1e3 * ratio(sec("autoax_progcache_compile_us"),
			float64(d.counts["autoax_progcache_compile_us"])), "ms"},
		"ml.fits_per_job": {fits, "count"},
		"ml.fit_s":        {ratio(trainS, fits), "s"},
		"ml.fidelity":     {mean(fidelity), "ratio"},
		"dse.explore_evals_per_s": {ratio(float64(d.counters[`autoax_pipeline_stage_items_total{stage="explore"}`]),
			sec(stageSeries(core.StageExplore))), "1/s"},
		"dse.memo_hit_ratio": {ratio(float64(d.counters["autoax_dse_climb_memo_hits_total"]),
			float64(d.counters["autoax_dse_climb_proposals_total"])), "ratio"},
		"dse.restarts_per_job":        {float64(d.counters["autoax_dse_climb_restarts_total"]) / n, "count"},
		"proc.peak_rss_mb":            {p.peakMB, "MB"},
		"proc.alloc_mb_per_job":       {float64(p.end.allocs-p.begin.allocs) / (1 << 20) / n, "MB"},
		"proc.gc_cycles_per_job":      {float64(p.end.gcs-p.begin.gcs) / n, "count"},
		"bench.generator_late_p99_ms": {float64(p.lateP99()) / 1e6, "ms"},
		"bench.polls_per_job":         {ratio(float64(polls), float64(len(p.runs))), "count"},
		"bench.trace_overhead_pct":    {traceOverhead, "%"},
		"bench.jobs":                  {float64(len(p.runs)), "count"},
		"bench.jobs_per_s":            {ratio(float64(len(ok)), untraced.Seconds()), "1/s"},
		"bench.latency_p50_s":         {quantile(latencies(ok, false, rawLatency), 0.5), "s"},
		"bench.host_slowdown":         {p.probe.slowdown(), "ratio"},
	}
	for _, st := range core.StageOrder {
		m["core."+st+"_s"] = metric{sec(stageSeries(st)) / n, "s"}
	}
	return m
}

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rssSampler records the process's resident set size every interval
// until Stop.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				mb, err := readRSS()
				if err != nil {
					s.err = err
					return
				}
				s.mb = append(s.mb, mb)
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the samples in MiB.
func (s *rssSampler) Stop() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.mb, s.err
}

// readRSS returns the process's resident set size in MiB.
func readRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// resetVmHWM restarts the kernel's peak-RSS tracking, so VmHWM covers only
// what follows (Linux: writing 5 to clear_refs resets the peak).
func resetVmHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readVmHWM returns the process's peak resident set size in MiB.
func readVmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
