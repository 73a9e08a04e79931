// Package obs is the zero-dependency observability core of autoax: atomic
// counters and gauges, fixed-bucket histograms with µs-resolution timers,
// and a Span API for stage-level tracing, all held in a process-wide
// default registry that can be snapshotted as JSON or rendered in the
// Prometheus text exposition format.
//
// The design constraint is the DSE hot path: recording a counter is one
// atomic add, recording a histogram sample is three (bucket, count, sum),
// and neither allocates or takes a lock.  Metric *lookup* (get-or-create
// by name) takes a registry lock and may allocate, so hot loops resolve
// their metrics once and hold the pointers — exactly like prometheus
// client libraries separate `NewCounter` from `Inc`.
//
// Metric identity is the full name string including an optional
// `{label="value",...}` suffix, e.g.
//
//	autoax_pipeline_stage_us{stage="explore"}
//
// The suffix is opaque to the registry (two label spellings are two
// metrics) and is emitted verbatim in the Prometheus exposition, so names
// must follow Prometheus syntax: base `[a-zA-Z_:][a-zA-Z0-9_:]*`, label
// values without embedded quotes.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.  One atomic add: safe for hot paths.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue length, bytes resident).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram of int64 samples
// (conventionally microseconds for latency metrics).  Bucket bounds are
// immutable after creation; Observe performs a branch-free-friendly linear
// scan over the bounds plus three atomic adds and never allocates.
type Histogram struct {
	bounds  []int64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// newHistogram copies the ascending bounds (an empty set is legal: only
// the implicit +Inf bucket remains).
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration at µs resolution.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// DefaultLatencyBuckets covers 1 µs – ~67 s in powers of four — wide
// enough for both a sub-µs estimator call and a minutes-long library
// build to land in an interior bucket.
var DefaultLatencyBuckets = []int64{
	1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
	262144, 1048576, 4194304, 16777216, 67108864,
}

// Registry is a named collection of metrics.  Get-or-create accessors are
// safe for concurrent use; the returned metric pointers are stable for the
// registry's lifetime, so callers resolve once and record lock-free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	clock      func() time.Time
}

// NewRegistry returns an empty registry on the real clock.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		clock:      time.Now,
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every autoax subsystem
// records into.
func Default() *Registry { return defaultRegistry }

// SetClock replaces the registry's time source (tests inject a fake clock
// to pin span durations).  Not safe to call concurrently with StartSpan.
func (r *Registry) SetClock(now func() time.Time) { r.clock = now }

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later calls ignore
// bounds — the first registration wins).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Span is one timed stage: created by StartSpan, closed by Finish, which
// records the elapsed time into the span's histogram at µs resolution.
// The zero Span is inert (Finish records nothing), so an optional span
// can be carried by value unconditionally.
type Span struct {
	h     *Histogram
	clock func() time.Time
	start time.Time
}

// StartSpan begins a span recording into the named latency histogram
// (DefaultLatencyBuckets) on the registry's clock.
func (r *Registry) StartSpan(name string) Span {
	return Span{h: r.Histogram(name, DefaultLatencyBuckets), clock: r.clock, start: r.clock()}
}

// StartSpanIn begins a span recording into an already-resolved histogram —
// the lookup-free variant for callers that hold their metric pointers.
func (r *Registry) StartSpanIn(h *Histogram) Span {
	return Span{h: h, clock: r.clock, start: r.clock()}
}

// Finish closes the span, records its duration, and returns it.
func (s Span) Finish() time.Duration {
	if s.h == nil {
		return 0
	}
	d := s.clock().Sub(s.start)
	s.h.ObserveDuration(d)
	return d
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound; the final bucket's bound
	// is reported as math.MaxInt64 and rendered "+Inf" in Prometheus form.
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, JSON-encodable as the
// /v1/metrics payload.  Maps are keyed by full metric name (including any
// label suffix).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// maxInt64 marks the implicit +Inf bucket bound in snapshots.
const maxInt64 = int64(^uint64(0) >> 1)

// Snapshot copies every metric's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(),
			Buckets: make([]BucketCount, len(h.buckets))}
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := maxInt64
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets[i] = BucketCount{Le: le, Count: cum}
		}
		s.Histograms[name] = hs
	}
	r.mu.RUnlock()
	return s
}

// splitName separates a metric name into its base and label interior:
// `x_total{kind="a"}` → ("x_total", `kind="a"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// promLine renders one sample line with optional extra label pairs.
func promLine(w io.Writer, base, labels, extra string, value any) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %v\n", base, value)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %v\n", base, extra, value)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %v\n", base, labels, value)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %v\n", base, labels, extra, value)
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`.  Output is sorted by metric name so scrapes diff cleanly.
func (s Snapshot) WritePrometheus(w io.Writer) {
	typed := make(map[string]bool)
	writeType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		base, labels := splitName(name)
		writeType(base, "counter")
		promLine(w, base, labels, "", s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := splitName(name)
		writeType(base, "gauge")
		promLine(w, base, labels, "", s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitName(name)
		writeType(base, "histogram")
		h := s.Histograms[name]
		for _, b := range h.Buckets {
			le := "+Inf"
			if b.Le != maxInt64 {
				le = fmt.Sprintf("%d", b.Le)
			}
			promLine(w, base+"_bucket", labels, `le="`+le+`"`, b.Count)
		}
		promLine(w, base+"_sum", labels, "", h.Sum)
		promLine(w, base+"_count", labels, "", h.Count)
	}
}

// WritePrometheus snapshots the registry and renders it; see
// Snapshot.WritePrometheus.
func (r *Registry) WritePrometheus(w io.Writer) { r.Snapshot().WritePrometheus(w) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var expvarOnce sync.Once

// PublishExpvar exposes the default registry as the expvar variable
// "autoax_metrics" (a JSON snapshot per read), so any /debug/vars
// listener — like the `autoax serve -pprof` side-listener — serves the
// metrics to standard Go tooling without the /v1/metrics endpoint.
// Idempotent: expvar names are process-global and publishing twice would
// panic.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("autoax_metrics", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}
