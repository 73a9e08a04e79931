package axserver

import (
	"bufio"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"autoax/internal/obs"
)

// runTinyPipeline drives one pipeline job to completion and returns its
// terminal info.
func runTinyPipeline(t *testing.T, base string, seed int64) JobInfo {
	t.Helper()
	var job JobInfo
	if code := postJSON(t, base+"/v1/pipelines", tinyPipeline(seed), &job); code != http.StatusAccepted {
		t.Fatalf("submit pipeline: status %d", code)
	}
	return waitJob(t, base, job.ID)
}

// TestMetricsEndpointJSON pins the families the /v1/metrics snapshot must
// cover after a pipeline run: HTTP requests, job lifecycle, all three
// cache tiers (memory, disk, compiled-program) and the pipeline stage
// timings.
func TestMetricsEndpointJSON(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := runTinyPipeline(t, ts.URL, 31)
	if info.State != JobSucceeded {
		t.Fatalf("pipeline job ended %s: %s", info.State, info.Error)
	}

	var snap obs.Snapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", code)
	}

	wantCounters := []string{
		// HTTP layer (the polling loop has exercised these).
		`autoax_http_requests_total{route="POST /v1/pipelines"}`,
		`autoax_http_requests_total{route="GET /v1/jobs/{id}"}`,
		`autoax_http_responses_total{route="POST /v1/pipelines",code="2xx"}`,
		// Job lifecycle.
		`autoax_jobs_submitted_total{kind="pipeline"}`,
		`autoax_jobs_completed_total{state="succeeded"}`,
		// Cache tier 1+2: the request artifact cache.
		`autoax_cache_hits_total{tier="memory"}`,
		`autoax_cache_hits_total{tier="disk"}`,
		"autoax_cache_misses_total",
		"autoax_cache_coalesced_total",
		"autoax_cache_evictions_total",
		// Compiled programs: directory loads and compiles.
		"autoax_progcache_hits_total",
		"autoax_progcache_misses_total",
		// Search internals.
		"autoax_dse_climb_iterations_total",
		"autoax_dse_precise_evals_total",
	}
	for _, name := range wantCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot missing counter %s", name)
		}
	}
	for _, name := range []string{
		`autoax_jobs{state="succeeded"}`,
		"autoax_queue_len",
		"autoax_workers",
		"autoax_cache_entries",
		"autoax_cache_mem_bytes",
		"autoax_uptime_seconds",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("snapshot missing gauge %s", name)
		}
	}
	for _, stage := range []string{"reduce", "samples", "train", "explore", "finalize"} {
		name := `autoax_pipeline_stage_us{stage="` + stage + `"}`
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("snapshot missing histogram %s", name)
			continue
		}
		if h.Count < 1 {
			t.Errorf("%s recorded %d samples, want ≥1", name, h.Count)
		}
	}
	for _, name := range []string{
		"autoax_job_queue_wait_us",
		"autoax_job_exec_us",
		`autoax_http_request_us{route="GET /v1/jobs/{id}"}`,
		"autoax_progcache_compile_us",
	} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("snapshot missing histogram %s", name)
		}
	}
	if n := snap.Counters[`autoax_jobs_submitted_total{kind="pipeline"}`]; n < 1 {
		t.Errorf("pipeline submissions = %d, want ≥1", n)
	}
}

// promLineRe matches one Prometheus exposition sample line.
var promLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9][0-9eE.+-]*$`)

// TestMetricsEndpointPrometheus checks the text exposition parses line by
// line and carries the same required families.
func TestMetricsEndpointPrometheus(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	runTinyPipeline(t, ts.URL, 37)

	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain", ct)
	}

	types := map[string]string{}
	series := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLineRe.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		series[line[:strings.IndexAny(line, " {")]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}

	for name, kind := range map[string]string{
		"autoax_http_requests_total":    "counter",
		"autoax_jobs_submitted_total":   "counter",
		"autoax_cache_hits_total":       "counter",
		"autoax_progcache_misses_total": "counter",
		"autoax_pipeline_stage_us":      "histogram",
		"autoax_job_exec_us":            "histogram",
		"autoax_queue_len":              "gauge",
	} {
		if got := types[name]; got != kind {
			t.Errorf("# TYPE %s = %q, want %q", name, got, kind)
		}
	}
	// Histograms expose _bucket/_sum/_count series.
	for _, s := range []string{
		"autoax_pipeline_stage_us_bucket",
		"autoax_pipeline_stage_us_sum",
		"autoax_pipeline_stage_us_count",
	} {
		if !series[s] {
			t.Errorf("exposition missing series %s", s)
		}
	}
}

// TestJobProgressLive polls a running pipeline job and checks the live
// progress contract: stages advance through the pipeline order, progress
// is monotone within a stage, and the terminal job reports the final
// stage fully complete.
func TestJobProgressLive(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	req := tinyPipeline(41)
	req.SearchEvals = 200000 // long enough for the poller to see explore mid-flight
	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	stageIdx := map[string]int{"reduce": 0, "samples": 1, "train": 2, "explore": 3, "finalize": 4}
	type obsPoint struct {
		stage       string
		done, total int64
	}
	var seen []obsPoint
	deadline := time.Now().Add(120 * time.Second)
	var final JobInfo
	for {
		var info JobInfo
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &info); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if info.Stage != "" {
			seen = append(seen, obsPoint{info.Stage, info.Progress, info.ProgressTotal})
		}
		if info.State.Terminal() {
			final = info
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish before deadline")
		}
	}
	if final.State != JobSucceeded {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	// Terminal info keeps the last stage, fully complete.
	if final.Stage != "finalize" {
		t.Errorf("terminal stage = %q, want finalize", final.Stage)
	}
	if final.ProgressTotal <= 0 || final.Progress != final.ProgressTotal {
		t.Errorf("terminal progress %d/%d, want complete", final.Progress, final.ProgressTotal)
	}

	// The stage sequence over the polls is non-regressing, with progress
	// monotone within each stage.
	distinct := map[string]bool{}
	for i, p := range seen {
		if _, ok := stageIdx[p.stage]; !ok {
			t.Fatalf("unknown stage %q", p.stage)
		}
		distinct[p.stage] = true
		if i == 0 {
			continue
		}
		prev := seen[i-1]
		if stageIdx[p.stage] < stageIdx[prev.stage] {
			t.Fatalf("stage regressed %s → %s", prev.stage, p.stage)
		}
		if p.stage == prev.stage && p.done < prev.done {
			t.Fatalf("progress regressed in %s: %d → %d", p.stage, prev.done, p.done)
		}
	}
	if len(distinct) < 3 {
		t.Errorf("polling observed %d distinct stages (%v), want ≥3", len(distinct), distinct)
	}
}

// TestCacheStatsTierSplit checks the new MemHits/DiskHits accounting:
// a fresh server with a shared disk cache serves the first lookup from
// disk and subsequent ones from memory.
func TestCacheStatsTierSplit(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("k/a", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(CacheConfig{Dir: dir}) // fresh memory tier, warm disk tier
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k/a"); !ok {
		t.Fatal("disk entry not found")
	}
	if _, ok := c2.Get("k/a"); !ok {
		t.Fatal("promoted entry not found")
	}
	if _, ok := c2.Get("k/missing"); ok {
		t.Fatal("phantom entry")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = mem %d / disk %d / miss %d, want 1/1/1", st.MemHits, st.DiskHits, st.Misses)
	}
	if st.Hits != st.MemHits+st.DiskHits {
		t.Fatalf("Hits %d != MemHits+DiskHits %d", st.Hits, st.MemHits+st.DiskHits)
	}
}
