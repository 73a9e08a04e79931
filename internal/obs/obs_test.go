package obs

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_us", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+100+101+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	hs := r.Snapshot().Histograms["h_us"]
	// Cumulative: ≤10 → 2, ≤100 → 4, +Inf → 6.
	want := []int64{2, 4, 6}
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, want[i])
		}
	}
	if hs.Buckets[2].Le != maxInt64 {
		t.Errorf("final bucket bound = %d, want +Inf sentinel", hs.Buckets[2].Le)
	}
}

func TestSpanUsesInjectedClock(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	sp := r.StartSpan("stage_us{stage=\"x\"}")
	now = now.Add(250 * time.Microsecond)
	if d := sp.Finish(); d != 250*time.Microsecond {
		t.Fatalf("span duration = %v, want 250µs", d)
	}
	h := r.Histogram("stage_us{stage=\"x\"}", nil)
	if h.Count() != 1 || h.Sum() != 250 {
		t.Fatalf("histogram count/sum = %d/%d, want 1/250", h.Count(), h.Sum())
	}
	var zero Span
	if zero.Finish() != 0 {
		t.Fatal("zero span must be inert")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(9)
	r.Histogram("c_us", DefaultLatencyBuckets).Observe(500)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 3 || back.Gauges["b"] != 9 {
		t.Fatalf("round trip lost values: %+v", back)
	}
	if back.Histograms["c_us"].Count != 1 {
		t.Fatalf("round trip lost histogram: %+v", back.Histograms["c_us"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{route="/v1/jobs"}`).Add(2)
	r.Gauge("queue_len").Set(3)
	h := r.Histogram(`lat_us{route="/v1/jobs"}`, []int64{100})
	h.Observe(50)
	h.Observe(200)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter\n",
		`req_total{route="/v1/jobs"} 2` + "\n",
		"# TYPE queue_len gauge\n",
		"queue_len 3\n",
		"# TYPE lat_us histogram\n",
		`lat_us_bucket{route="/v1/jobs",le="100"} 1` + "\n",
		`lat_us_bucket{route="/v1/jobs",le="+Inf"} 2` + "\n",
		`lat_us_sum{route="/v1/jobs"} 250` + "\n",
		`lat_us_count{route="/v1/jobs"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRecording exercises the lock-free record paths under the
// race detector.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total")
	h := r.Histogram("hh_us", DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter/histogram = %d/%d, want 8000/8000", c.Value(), h.Count())
	}
}

func TestPublishExpvar(t *testing.T) {
	Default().Counter("expvar_probe_total").Inc()
	PublishExpvar()
	PublishExpvar() // idempotent: a second publish must not panic
	v := expvar.Get("autoax_metrics")
	if v == nil {
		t.Fatal("autoax_metrics not published")
	}
	if !strings.Contains(v.String(), "expvar_probe_total") {
		t.Fatalf("expvar snapshot missing probe counter: %s", v.String())
	}
}
