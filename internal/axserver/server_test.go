package axserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/fleet"
	"autoax/internal/pmf"
)

// tinyLibrary covers Sobel's operation mix (add8 ×2, add9 ×2, sub10) at a
// size that characterizes in well under a second.
func tinyLibrary(seed int64) LibraryRequest {
	return LibraryRequest{
		Specs: []SpecRequest{
			{Op: "add8", Count: 8},
			{Op: "add9", Count: 8},
			{Op: "sub10", Count: 6},
		},
		Seed: seed,
	}
}

// tinyPipeline is a seconds-scale full methodology run.
func tinyPipeline(seed int64) PipelineRequest {
	return PipelineRequest{
		App:          "sobel",
		Library:      tinyLibrary(1),
		Images:       ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		TrainConfigs: 24,
		TestConfigs:  12,
		SearchEvals:  2000,
		Seed:         seed,
	}
}

// testServer starts an httptest server over a fresh axserver.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON submits a body and decodes the response envelope.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches a URL and decodes the response.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var info JobInfo
		if code := getJSON(t, base+"/v1/jobs/"+id, &info); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if info.State.Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentPipelines drives two full methodology runs through the job
// API at once and checks both complete with sane results — the service's
// core end-to-end path under concurrency.
func TestConcurrentPipelines(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})

	var a, b JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(11), &a); code != http.StatusAccepted {
		t.Fatalf("submit pipeline a: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(22), &b); code != http.StatusAccepted {
		t.Fatalf("submit pipeline b: status %d", code)
	}

	ra := waitJob(t, ts.URL, a.ID)
	rb := waitJob(t, ts.URL, b.ID)
	for _, r := range []JobInfo{ra, rb} {
		if r.State != JobSucceeded {
			t.Fatalf("job %s: state %s, error %q", r.ID, r.State, r.Error)
		}
		var res PipelineResult
		if err := json.Unmarshal(r.Result, &res); err != nil {
			t.Fatalf("job %s: decode result: %v", r.ID, err)
		}
		if len(res.Front) == 0 {
			t.Errorf("job %s: empty final front", r.ID)
		}
		if res.QoRFidelity < 0 || res.QoRFidelity > 1 || res.HWFidelity < 0 || res.HWFidelity > 1 {
			t.Errorf("job %s: fidelities out of range: %v %v", r.ID, res.QoRFidelity, res.HWFidelity)
		}
		if res.SpaceConfigs < 1 {
			t.Errorf("job %s: implausible space size %v", r.ID, res.SpaceConfigs)
		}
	}
	// With two workers and back-to-back submission both jobs must have been
	// in flight simultaneously.
	if !(ra.Started.Before(rb.Ended) && rb.Started.Before(ra.Ended)) {
		t.Errorf("jobs did not overlap: a=[%v,%v] b=[%v,%v]",
			ra.Started, ra.Ended, rb.Started, rb.Ended)
	}
}

// TestLibraryCacheHit checks that a repeated identical library build is
// answered from the content-addressed cache without recomputation.
func TestLibraryCacheHit(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})

	var first JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(3), &first); code != http.StatusAccepted {
		t.Fatalf("submit library: status %d", code)
	}
	r1 := waitJob(t, ts.URL, first.ID)
	if r1.State != JobSucceeded {
		t.Fatalf("first build: state %s, error %q", r1.State, r1.Error)
	}
	if r1.Cached {
		t.Fatalf("first build claims to be cached")
	}
	baseline := s.CacheStats()

	var second JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(3), &second); code != http.StatusAccepted {
		t.Fatalf("resubmit library: status %d", code)
	}
	r2 := waitJob(t, ts.URL, second.ID)
	if r2.State != JobSucceeded {
		t.Fatalf("second build: state %s, error %q", r2.State, r2.Error)
	}
	if !r2.Cached {
		t.Fatalf("identical repeated build was recomputed instead of served from cache")
	}
	after := s.CacheStats()
	if after.Hits != baseline.Hits+1 {
		t.Errorf("cache hits: got %d, want %d", after.Hits, baseline.Hits+1)
	}

	var k1, k2 LibraryResult
	if err := json.Unmarshal(r1.Result, &k1); err != nil {
		t.Fatalf("decode first result: %v", err)
	}
	if err := json.Unmarshal(r2.Result, &k2); err != nil {
		t.Fatalf("decode second result: %v", err)
	}
	if k1.Key != k2.Key || k1.Size != k2.Size {
		t.Errorf("cache returned a different artifact: %+v vs %+v", k1, k2)
	}

	// The same counters surface over HTTP for operators.
	var stats Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET stats: status %d", code)
	}
	if stats.Cache.Hits < 1 {
		t.Errorf("stats endpoint reports no cache hits: %+v", stats.Cache)
	}
}

// TestCancelRunningJob checks that DELETE /v1/jobs/{id} aborts a running
// pipeline at a stage checkpoint instead of letting it drain its budget.
func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	// A sample budget far beyond the tiny runs: without cancellation this
	// would precisely evaluate 50k configurations.
	req := tinyPipeline(9)
	req.TrainConfigs = 50000
	req.TestConfigs = 1000

	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit pipeline: status %d", code)
	}

	// Wait for the worker to pick the job up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info JobInfo
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &info)
		if info.State == JobRunning {
			break
		}
		if info.State.Terminal() {
			t.Fatalf("job reached %s before it could be cancelled", info.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancelReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatalf("build DELETE: %v", err)
	}
	resp, err := http.DefaultClient.Do(cancelReq)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	var ack CancelResponse
	decErr := json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE job: status %d", resp.StatusCode)
	}
	if decErr != nil {
		t.Fatalf("decode cancel response: %v", decErr)
	}
	// Cancelling a running job only promises delivery: the response flags
	// the best-effort contract and still shows the pre-terminal state.
	if !ack.BestEffort || ack.Job.State != JobRunning {
		t.Fatalf("cancel ack %+v, want bestEffort=true on a running job", ack)
	}

	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobCancelled {
		t.Fatalf("cancelled job ended as %s (error %q)", final.State, final.Error)
	}
}

// TestCancelRunningLibraryBuild checks that cancellation also lands inside
// a library build (between circuit characterizations), not just between
// pipeline stages.
func TestCancelRunningLibraryBuild(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	// Hundreds of 16-bit circuits: seconds of characterization if allowed
	// to finish.
	big := LibraryRequest{
		Specs: []SpecRequest{{Op: "add16", Count: 400}, {Op: "mul8", Count: 400}},
		Seed:  1,
	}
	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", big, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info JobInfo
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &info)
		if info.State == JobRunning {
			break
		}
		if info.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %s before cancellation", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := waitJob(t, ts.URL, job.ID); final.State != JobCancelled {
		t.Fatalf("library build ended as %s (error %q)", final.State, final.Error)
	}
}

// TestCancelQueuedJob checks that a job cancelled while waiting for a
// worker never runs.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	// Occupy the single worker.
	blocker := tinyPipeline(7)
	blocker.TrainConfigs = 50000
	var running, queued JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", blocker, &running); code != http.StatusAccepted {
		t.Fatalf("submit blocker: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(8), &queued); code != http.StatusAccepted {
		t.Fatalf("submit queued: status %d", code)
	}

	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatalf("build DELETE: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(queued.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued job: status %d", code)
	}
	info := waitJob(t, ts.URL, queued.ID)
	if info.State != JobCancelled {
		t.Fatalf("queued job ended as %s", info.State)
	}
	if !info.Started.IsZero() {
		t.Errorf("cancelled queued job was started anyway at %v", info.Started)
	}
	if code := del(running.ID); code != http.StatusOK {
		t.Fatalf("DELETE blocker: status %d", code)
	}
	if final := waitJob(t, ts.URL, running.ID); final.State != JobCancelled {
		t.Fatalf("blocker ended as %s", final.State)
	}
	// Cancelling a finished job is a conflict, not a repeat cancel.
	if code := del(running.ID); code != http.StatusConflict {
		t.Errorf("re-cancel of finished job: status %d, want %d", code, http.StatusConflict)
	}
}

// TestEvaluateEndpoint drives POST /v1/evaluate end-to-end: explicit
// configurations of the full library space evaluated precisely.
func TestEvaluateEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	req := EvaluateRequest{
		App:     "sobel",
		Library: tinyLibrary(1),
		Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		Configs: [][]int{
			{0, 0, 0, 0, 0}, // Sobel has 5 operation nodes
			{1, 0, 1, 0, 1},
		},
	}
	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/evaluate", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit evaluate: status %d", code)
	}
	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobSucceeded {
		t.Fatalf("evaluate: state %s, error %q", final.State, final.Error)
	}
	var res EvaluateResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	for i, r := range res.Results {
		if r.SSIM < 0 || r.SSIM > 1 || r.Area <= 0 {
			t.Errorf("result %d implausible: %+v", i, r)
		}
	}

	// An equivalent repeated evaluation is served from the result cache —
	// even when defaulted fields are spelled differently (kernels is
	// irrelevant for sobel, images.seed 5 is explicit both times).
	again0 := req
	again0.Kernels = 3
	var again JobInfo
	if code := postJSON(t, ts.URL+"/v1/evaluate", again0, &again); code != http.StatusAccepted {
		t.Fatalf("resubmit evaluate: status %d", code)
	}
	rerun := waitJob(t, ts.URL, again.ID)
	if rerun.State != JobSucceeded {
		t.Fatalf("repeat evaluate: state %s, error %q", rerun.State, rerun.Error)
	}
	if !rerun.Cached {
		t.Errorf("identical repeated evaluation was recomputed")
	}
	if string(rerun.Result) != string(final.Result) {
		t.Errorf("cached evaluation differs from the original")
	}
}

// TestEvalParallelismResultsIdentical: a job evaluates on GOMAXPROCS
// goroutines, and its evaluate and pipeline answers are byte-identical at
// GOMAXPROCS 1 and 4.
func TestEvalParallelismResultsIdentical(t *testing.T) {
	eval := EvaluateRequest{
		App:     "sobel",
		Library: tinyLibrary(1),
		Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		Configs: [][]int{
			{0, 0, 0, 0, 0}, {1, 0, 1, 0, 1}, {2, 1, 2, 1, 2}, {3, 2, 3, 2, 3},
			{4, 3, 0, 1, 4}, {5, 4, 1, 0, 5}, {6, 5, 2, 3, 0}, {7, 6, 3, 4, 1},
		},
	}
	answers := func(procs int) (evaluate, pipeline []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, ts := testServer(t, Options{})
		var out [2][]byte
		for i, sub := range []struct {
			path string
			body any
		}{{"/v1/evaluate", eval}, {"/v1/pipelines", tinyPipeline(11)}} {
			var job JobInfo
			if code := postJSON(t, ts.URL+sub.path, sub.body, &job); code != http.StatusAccepted {
				t.Fatalf("submit %s: status %d", sub.path, code)
			}
			final := waitJob(t, ts.URL, job.ID)
			if final.State != JobSucceeded {
				t.Fatalf("%s: state %s, error %q", sub.path, final.State, final.Error)
			}
			out[i] = final.Result
		}
		return out[0], out[1]
	}
	eOne, pOne := answers(1)
	eFour, pFour := answers(4)
	if !bytes.Equal(eOne, eFour) {
		t.Errorf("evaluate results differ:\nGOMAXPROCS 1 %s\nGOMAXPROCS 4 %s", eOne, eFour)
	}
	if !bytes.Equal(pOne, pFour) {
		t.Errorf("pipeline results differ:\nGOMAXPROCS 1 %s\nGOMAXPROCS 4 %s", pOne, pFour)
	}
}

// goldenEvaluate is the evaluate request whose content key
// TestContentKeysGolden pins.
func goldenEvaluate() EvaluateRequest {
	return EvaluateRequest{
		App:     "sobel",
		Library: tinyLibrary(1),
		Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		Configs: [][]int{{0, 0, 0, 0, 0}, {1, 0, 1, 0, 1}},
	}
}

// Golden content keys of tinyPipeline(11) and goldenEvaluate().
const (
	goldenPipelineKey = "89b80587a5e3dd287cffd9331f2b72cfc77b2c79c5fc720a40f07f3ebcc17987"
	goldenEvaluateKey = "3609a08524ec580201f2a751a110d842c57b93bf2fbf6180100007351baded5e"
)

// TestContentKeysGolden pins the content keys of one fixed pipeline and
// one fixed evaluate request.  The durable artifact cache and the journal
// address results by these keys, so a change to the request types or to
// their canonicalization must not rotate them.  The values predate the
// removal of the request "parallelism" field, which was omitted when zero
// and zeroed before hashing.
func TestContentKeysGolden(t *testing.T) {
	if pk := contentKey(t, tinyPipeline(11)); pk != goldenPipelineKey {
		t.Errorf("pipeline key = %s, want %s", pk, goldenPipelineKey)
	}
	if ek := contentKey(t, goldenEvaluate()); ek != goldenEvaluateKey {
		t.Errorf("evaluate key = %s, want %s", ek, goldenEvaluateKey)
	}
}

// TestContentKeysGoldenInline spells the golden requests' accelerator
// inline, with every node renamed, and the defaults they rely on
// explicitly: both must hash to the named spelling's golden keys.
func TestContentKeysGoldenInline(t *testing.T) {
	pipe := tinyPipeline(11)
	pipe.App, pipe.Accelerator = "", inlineSobel(t, true)
	if pk := contentKey(t, pipe); pk != goldenPipelineKey {
		t.Errorf("inline pipeline key = %s, want %s", pk, goldenPipelineKey)
	}
	d := core.DefaultConfig()
	pipe.Stagnation, pipe.Engine = d.Stagnation, d.Engine.Name
	pipe.Search = SearchSpec{Engine: dse.DefaultEngineName, Seed: 11 + 300}
	if pk := contentKey(t, pipe); pk != goldenPipelineKey {
		t.Errorf("inline pipeline key with explicit defaults = %s, want %s", pk, goldenPipelineKey)
	}
	eval := goldenEvaluate()
	eval.App, eval.Accelerator = "", inlineSobel(t, true)
	if ek := contentKey(t, eval); ek != goldenEvaluateKey {
		t.Errorf("inline evaluate key = %s, want %s", ek, goldenEvaluateKey)
	}
}

// contentKey returns the content key the submit path files req under.
func contentKey(t *testing.T, req accelRequest) string {
	t.Helper()
	_, k, err := prepare(req)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return k
}

// withField returns req's JSON encoding with one extra top-level field.
func withField(t *testing.T, req any, name string, value any) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	m[name] = value
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRequestParallelismFieldRejected: requests have no "parallelism"
// field any more, and the strict request decoder answers 400 naming it
// rather than silently ignoring a knob that no longer exists.
func TestRequestParallelismFieldRejected(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	eval := EvaluateRequest{
		App:     "sobel",
		Library: tinyLibrary(1),
		Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		Configs: [][]int{{0, 0, 0, 0, 0}},
	}
	for _, sub := range []struct {
		path string
		body any
	}{{"/v1/evaluate", eval}, {"/v1/pipelines", tinyPipeline(11)}} {
		resp, err := http.Post(ts.URL+sub.path, "application/json",
			bytes.NewReader(withField(t, sub.body, "parallelism", 2)))
		if err != nil {
			t.Fatalf("POST %s: %v", sub.path, err)
		}
		var env errorBody
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode error body: %v", sub.path, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", sub.path, resp.StatusCode)
		}
		if !strings.Contains(env.Error, `unknown field "parallelism"`) {
			t.Errorf("%s: error %q does not name the unknown field", sub.path, env.Error)
		}
	}
}

// TestRequestNegativeLibraryOptionRejected: a negative characterization
// knob, or a samples or exhaustiveBits value past its cap, is refused
// with a 400 naming the field, by Key and at submit on /v1/libraries and
// on /v1/evaluate and /v1/pipelines, which embed the library request.
// Every submission fails validation before a job exists, so the job list
// stays empty and no build starts.
func TestRequestNegativeLibraryOptionRejected(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, c := range []struct {
		field string
		value int
	}{
		{"exhaustiveBits", -1}, {"samples", -1}, {"activityBatches", -1},
		{"exhaustiveBits", maxExhaustiveBits + 1}, {"samples", maxLibrarySamples + 1},
	} {
		field := c.field
		var lib LibraryRequest
		if err := json.Unmarshal(withField(t, tinyLibrary(1), field, c.value), &lib); err != nil {
			t.Fatal(err)
		}
		if _, err := lib.Key(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Key with %s %d: error %v does not name the field", field, c.value, err)
		}
		eval := EvaluateRequest{
			App:     "sobel",
			Library: lib,
			Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
			Configs: [][]int{{0, 0, 0, 0, 0}},
		}
		pipe := tinyPipeline(11)
		pipe.Library = lib
		for _, sub := range []struct {
			path string
			body any
		}{{"/v1/libraries", lib}, {"/v1/evaluate", eval}, {"/v1/pipelines", pipe}} {
			var env errorBody
			if code := postJSON(t, ts.URL+sub.path, sub.body, &env); code != http.StatusBadRequest {
				t.Errorf("%s with %s %d: status %d, want 400", sub.path, field, c.value, code)
			}
			if !strings.Contains(env.Error, field) {
				t.Errorf("%s with %s %d: error %q does not name the field", sub.path, field, c.value, env.Error)
			}
		}
	}
	var jobs []JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("GET /v1/jobs: status %d, %d jobs; want 200 and none", code, len(jobs))
	}
}

// TestJobRetention checks terminal jobs are evicted beyond the cap while
// the newest survive.
func TestJobRetention(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	s.manager.mu.Lock()
	s.manager.retain = 3
	s.manager.mu.Unlock()

	var last JobInfo
	for i := 0; i < 6; i++ {
		var job JobInfo
		if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(1), &job); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		last = waitJob(t, ts.URL, job.ID)
	}
	if last.State != JobSucceeded {
		t.Fatalf("last job: %s", last.State)
	}
	var list []JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET jobs: status %d", code)
	}
	if len(list) != 3 {
		t.Fatalf("retained %d jobs, want 3", len(list))
	}
	if list[len(list)-1].ID != last.ID {
		t.Errorf("newest job %s evicted; retained %v", last.ID, list)
	}
	var e errorBody
	if code := getJSON(t, ts.URL+"/v1/jobs/job-000001", &e); code != http.StatusNotFound {
		t.Errorf("evicted job still resolvable: status %d", code)
	}
}

// TestRequestValidation checks the HTTP error envelope for malformed
// submissions and unknown resources.
func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/pipelines",
		PipelineRequest{App: "nonesuch", Library: tinyLibrary(1), Images: ImageSpec{Count: 1, Width: 32, Height: 24}},
		&e); code != http.StatusBadRequest {
		t.Errorf("unknown app: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/libraries",
		LibraryRequest{Specs: []SpecRequest{{Op: "div4", Count: 3}}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/libraries", LibraryRequest{}, &e); code != http.StatusBadRequest {
		t.Errorf("empty specs: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{App: "sobel", Library: tinyLibrary(1), Configs: [][]int{{0, 0, 0, 0, 0}}},
		&e); code != http.StatusBadRequest {
		t.Errorf("zero image spec: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{App: "sobel", Library: tinyLibrary(1),
			Images:  ImageSpec{Count: 1000, Width: 100000, Height: 100000},
			Configs: [][]int{{0, 0, 0, 0, 0}}},
		&e); code != http.StatusBadRequest {
		t.Errorf("absurd image spec: status %d, want 400", code)
	}
	// Dimensions chosen so the pixel product overflows int64 to 0: the
	// per-dimension bounds must reject before the budget check.
	if code := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{App: "sobel", Library: tinyLibrary(1),
			Images:  ImageSpec{Count: 1 << 32, Width: 1 << 32, Height: 1},
			Configs: [][]int{{0, 0, 0, 0, 0}}},
		&e); code != http.StatusBadRequest {
		t.Errorf("overflowing image spec: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/libraries",
		LibraryRequest{Specs: []SpecRequest{{Op: "add8", Count: 1 << 30}}}, &e); code != http.StatusBadRequest {
		t.Errorf("absurd circuit count: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/pipelines",
		PipelineRequest{App: "genericgf", Kernels: 1 << 30, Library: tinyLibrary(1),
			Images: ImageSpec{Count: 1, Width: 32, Height: 24}},
		&e); code != http.StatusBadRequest {
		t.Errorf("absurd kernel count: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{App: "sobel", Library: tinyLibrary(1),
			Images:  ImageSpec{Count: 2, Width: 32, Height: 24},
			Configs: make([][]int, maxEvalConfigs+1)},
		&e); code != http.StatusBadRequest {
		t.Errorf("oversized config batch: status %d, want 400", code)
	}
	// Leading whitespace is skipped by the JSON decoder, so the reader
	// must cross the byte cap before any parse error can occur.
	huge := append(bytes.Repeat([]byte(" "), maxBodyBytes+1), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/v1/libraries", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatalf("oversized POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", &e); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/libraries/deadbeef", &e); code != http.StatusNotFound {
		t.Errorf("unknown library key: status %d, want 404", code)
	}
	var health HealthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: status %d body %+v", code, health)
	}
	if health.Shards != fleet.ProtocolVersion {
		t.Errorf("healthz advertises shard protocol %d, want %d", health.Shards, fleet.ProtocolVersion)
	}
}

// TestSubmitDuringShutdown checks that a submission racing Server.Close
// gets 503 (retry) rather than 400 (invalid), and leaves no phantom job.
func TestSubmitDuringShutdown(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()

	var e errorBody
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(1), &e); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d, want 503", code)
	}
	var list []JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET jobs: status %d", code)
	}
	for _, j := range list {
		if !j.State.Terminal() {
			t.Errorf("phantom non-terminal job after rejected submit: %+v", j)
		}
	}
}

// TestLibraryRoundTrip builds a tiny library through the API, fetches the
// serialized artifact by key, round-trips it through Library.SaveFile /
// acl.LoadFile, and checks circuit counts and WMED scoring survive.
func TestLibraryRoundTrip(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(7), &job); code != http.StatusAccepted {
		t.Fatalf("submit library: status %d", code)
	}
	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobSucceeded {
		t.Fatalf("build: state %s, error %q", final.State, final.Error)
	}
	var built LibraryResult
	if err := json.Unmarshal(final.Result, &built); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if built.Size == 0 || built.Key == "" {
		t.Fatalf("implausible build result: %+v", built)
	}

	resp, err := http.Get(ts.URL + "/v1/libraries/" + built.Key)
	if err != nil {
		t.Fatalf("GET library: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET library: status %d", resp.StatusCode)
	}
	fetched, err := acl.Load(resp.Body)
	if err != nil {
		t.Fatalf("load fetched library: %v", err)
	}
	if fetched.Size() != built.Size {
		t.Fatalf("fetched library has %d circuits, job reported %d", fetched.Size(), built.Size)
	}
	for op, want := range built.Ops {
		if got := len(fetched.Circuits[op]); got != want {
			t.Errorf("op %s: fetched %d circuits, job reported %d", op, got, want)
		}
	}

	// Round-trip the artifact through file persistence.
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := fetched.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	reloaded, err := acl.LoadFile(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if reloaded.Size() != fetched.Size() {
		t.Fatalf("reload lost circuits: %d vs %d", reloaded.Size(), fetched.Size())
	}

	// WMED is derived from the netlist at pre-processing time; scoring the
	// fetched and reloaded copies under the same distribution must agree
	// exactly, proving the behaviours (not just the metadata) survived.
	for _, op := range fetched.Ops() {
		a, b := fetched.For(op), reloaded.For(op)
		if len(a) != len(b) {
			t.Fatalf("op %s: %d vs %d circuits after reload", op, len(a), len(b))
		}
		wa, wb := op.InWidths()
		d := pmf.Uniform(wa, wb)
		acl.ScoreWMED(a, d)
		acl.ScoreWMED(b, d)
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatalf("op %s circuit %d: name %q vs %q", op, i, a[i].Name, b[i].Name)
			}
			if a[i].WMED != b[i].WMED {
				t.Errorf("op %s circuit %s: WMED %v vs %v after reload", op, a[i].Name, a[i].WMED, b[i].WMED)
			}
		}
	}
}

// TestPipelineResultCache checks that a repeated identical pipeline request
// is served from the content-addressed result cache.
func TestPipelineResultCache(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	var a JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(4), &a); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	ra := waitJob(t, ts.URL, a.ID)
	if ra.State != JobSucceeded {
		t.Fatalf("first run: %s (%s)", ra.State, ra.Error)
	}
	var b JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(4), &b); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	rb := waitJob(t, ts.URL, b.ID)
	if rb.State != JobSucceeded {
		t.Fatalf("second run: %s (%s)", rb.State, rb.Error)
	}
	if !rb.Cached {
		t.Fatalf("identical pipeline request was recomputed")
	}
	if string(ra.Result) != string(rb.Result) {
		t.Errorf("cached pipeline result differs from the original")
	}
	// A repeat should be orders of magnitude faster than the original run.
	if orig, hit := ra.Ended.Sub(ra.Started), rb.Ended.Sub(rb.Started); hit > orig {
		t.Errorf("cache hit (%v) slower than original run (%v)", hit, orig)
	}
}

// TestPipelineCacheSkipsSingleClimbKeyspace plants a pipeline result under
// the current keyspace (served) and under the unversioned keyspace that
// held single-climb archives (recomputed, never served): a durable cache
// written before explore split its budget must not answer for the split
// search.
func TestPipelineCacheSkipsSingleClimbKeyspace(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, CacheDir: t.TempDir()})
	req := tinyPipeline(6)
	key := contentKey(t, req)
	planted, err := json.Marshal(PipelineResult{Engine: "planted", SearchEngine: "planted"})
	if err != nil {
		t.Fatal(err)
	}
	run := func() JobInfo {
		t.Helper()
		var job JobInfo
		if code := postJSON(t, ts.URL+"/v1/pipelines", req, &job); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		final := waitJob(t, ts.URL, job.ID)
		if final.State != JobSucceeded {
			t.Fatalf("pipeline: %s (%s)", final.State, final.Error)
		}
		return final
	}

	// Control: a result under the current keyspace is served as is.
	if err := s.cache.Put(pipelineKeyspace+key, planted); err != nil {
		t.Fatal(err)
	}
	if got := run(); !got.Cached || !bytes.Contains(got.Result, []byte("planted")) {
		t.Fatalf("current-keyspace plant not served: cached %v result %s", got.Cached, got.Result)
	}
	s.cache.Delete(pipelineKeyspace + key)

	if err := s.cache.Put("pipeline/"+key, planted); err != nil {
		t.Fatal(err)
	}
	got := run()
	if got.Cached || bytes.Contains(got.Result, []byte("planted")) {
		t.Fatalf("single-climb result served: cached %v result %s", got.Cached, got.Result)
	}
}

// TestDiskCachePersistence checks that a second server instance over the
// same cache directory serves a previously built library without
// recomputation.
func TestDiskCachePersistence(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := testServer(t, Options{Workers: 1, CacheDir: dir})
	var job JobInfo
	if code := postJSON(t, ts1.URL+"/v1/libraries", tinyLibrary(2), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	r1 := waitJob(t, ts1.URL, job.ID)
	if r1.State != JobSucceeded || r1.Cached {
		t.Fatalf("first build: state %s cached %v", r1.State, r1.Cached)
	}
	_ = s1

	s2, ts2 := testServer(t, Options{Workers: 1, CacheDir: dir})
	if code := postJSON(t, ts2.URL+"/v1/libraries", tinyLibrary(2), &job); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	r2 := waitJob(t, ts2.URL, job.ID)
	if r2.State != JobSucceeded {
		t.Fatalf("second build: state %s error %q", r2.State, r2.Error)
	}
	if !r2.Cached {
		t.Fatalf("fresh server over a warm cache dir recomputed the library")
	}
	if st := s2.CacheStats(); st.Hits < 1 {
		t.Errorf("second server saw no cache hits: %+v", st)
	}
}

// TestCorruptCacheSelfHeals checks that a corrupt on-disk artifact is
// dropped and rebuilt instead of failing every future request for its key.
func TestCorruptCacheSelfHeals(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Options{Workers: 1, CacheDir: dir})

	key, err := tinyLibrary(5).Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "library-"+key+".json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(5), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	final := waitJob(t, ts.URL, job.ID)
	if final.State != JobSucceeded {
		t.Fatalf("build over corrupt cache: state %s, error %q", final.State, final.Error)
	}
	if final.Cached {
		t.Fatalf("corrupt artifact was served as a cache hit")
	}
	// The healed artifact now serves hits.
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(5), &job); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if again := waitJob(t, ts.URL, job.ID); again.State != JobSucceeded || !again.Cached {
		t.Fatalf("healed key not cached: state %s cached %v", again.State, again.Cached)
	}
}

// inlineSobel serializes the built-in Sobel case study into its wire form,
// optionally renaming everything to prove content-addressing is
// name-invariant.
func inlineSobel(t *testing.T, rename bool) *accel.WireApp {
	t.Helper()
	app := apps.Sobel()
	if rename {
		app.Name = "my-custom-detector"
		app.Graph.Name = "my-custom-graph"
		for i := range app.Graph.Nodes {
			app.Graph.Nodes[i].Name = fmt.Sprintf("n%d", i)
		}
	}
	w, err := app.Wire()
	if err != nil {
		t.Fatalf("wire sobel: %v", err)
	}
	return w
}

// TestInlineAcceleratorKeyMatchesNamedApp checks the acceptance criterion
// that {"app":"sobel"} and the inline-serialized Sobel graph content-hash
// to the same cache key — even when the inline copy renames every node.
func TestInlineAcceleratorKeyMatchesNamedApp(t *testing.T) {
	named := tinyPipeline(3)
	inline := tinyPipeline(3)
	inline.App = ""
	inline.Accelerator = inlineSobel(t, true)

	kNamed := contentKey(t, named)
	kInline := contentKey(t, inline)
	if kNamed != kInline {
		t.Fatalf("named and inline-equivalent pipeline requests hash differently:\n%s\n%s", kNamed, kInline)
	}

	eNamed := EvaluateRequest{App: "sobel", Library: tinyLibrary(1),
		Images: ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5}, Configs: [][]int{{0, 0, 0, 0, 0}}}
	eInline := eNamed
	eInline.App = ""
	eInline.Accelerator = inlineSobel(t, true)
	if contentKey(t, eNamed) != contentKey(t, eInline) {
		t.Fatalf("named and inline-equivalent evaluate requests hash differently")
	}

	// A structurally different accelerator must not collide.
	other := tinyPipeline(3)
	other.App = ""
	other.Accelerator = inlineSobel(t, false)
	other.Accelerator.Taps[0] = accel.WindowTap{DX: 0, DY: 0}
	if contentKey(t, other) == kNamed {
		t.Fatalf("structurally different accelerators share a cache key")
	}
}

// TestInlineAcceleratorPipeline drives a custom wire-format accelerator
// through POST /v1/pipelines end-to-end and checks a named submission of
// the equivalent app is then served from the shared cache entry.
func TestInlineAcceleratorPipeline(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	req := tinyPipeline(11)
	req.App = ""
	req.Accelerator = inlineSobel(t, true)

	var job JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit inline pipeline: status %d", code)
	}
	first := waitJob(t, ts.URL, job.ID)
	if first.State != JobSucceeded {
		t.Fatalf("inline pipeline: state %s, error %q", first.State, first.Error)
	}
	var res PipelineResult
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatalf("inline pipeline produced an empty front")
	}

	// The equivalent *named* request must be a cache hit with an identical
	// payload: the accelerator hash, not the spelling, addresses the entry.
	named := tinyPipeline(11)
	var second JobInfo
	if code := postJSON(t, ts.URL+"/v1/pipelines", named, &second); code != http.StatusAccepted {
		t.Fatalf("submit named pipeline: status %d", code)
	}
	hit := waitJob(t, ts.URL, second.ID)
	if hit.State != JobSucceeded {
		t.Fatalf("named pipeline: state %s, error %q", hit.State, hit.Error)
	}
	if !hit.Cached {
		t.Errorf("named submission of an already-computed inline accelerator was recomputed")
	}
	if string(hit.Result) != string(first.Result) {
		t.Errorf("named and inline results differ")
	}
}

// TestInlineAcceleratorValidation checks malformed accelerator submissions
// are rejected at the HTTP boundary, before any job is queued.
func TestInlineAcceleratorValidation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	images := ImageSpec{Count: 1, Width: 32, Height: 24}

	var e errorBody
	// Both app and accelerator.
	both := tinyPipeline(1)
	both.Accelerator = inlineSobel(t, false)
	if code := postJSON(t, ts.URL+"/v1/pipelines", both, &e); code != http.StatusBadRequest {
		t.Errorf("app+accelerator: status %d, want 400", code)
	}
	// Neither.
	neither := tinyPipeline(1)
	neither.App = ""
	if code := postJSON(t, ts.URL+"/v1/pipelines", neither, &e); code != http.StatusBadRequest {
		t.Errorf("no app, no accelerator: status %d, want 400", code)
	}
	// Structurally broken graph: an op node declaring a width its operation
	// does not produce must be rejected before it can reach a worker.
	bad := inlineSobel(t, false)
	for i := range bad.Graph.Nodes {
		if bad.Graph.Nodes[i].Kind == "op" {
			bad.Graph.Nodes[i].Width++
			break
		}
	}
	badReq := PipelineRequest{Accelerator: bad, Library: tinyLibrary(1), Images: images}
	if code := postJSON(t, ts.URL+"/v1/pipelines", badReq, &e); code != http.StatusBadRequest {
		t.Errorf("inconsistent widths: status %d, want 400", code)
	}
	unknownKind := inlineSobel(t, false)
	unknownKind.Graph.Nodes[0].Kind = "xor"
	if code := postJSON(t, ts.URL+"/v1/evaluate",
		EvaluateRequest{Accelerator: unknownKind, Library: tinyLibrary(1), Images: images,
			Configs: [][]int{{0, 0, 0, 0, 0}}}, &e); code != http.StatusBadRequest {
		t.Errorf("unknown node kind: status %d, want 400", code)
	}
	// Unknown JSON fields inside the accelerator payload are rejected by
	// the strict request decoder.
	raw := []byte(`{"accelerator":{"version":1,"graph":{"nodes":[],"outputs":[]},"taps":[],"sims":[[]],"bogus":1},` +
		`"library":{"specs":[{"op":"add8","count":2}],"seed":1},"images":{"count":1,"width":32,"height":24}}`)
	resp, err := http.Post(ts.URL+"/v1/pipelines", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown accelerator field: status %d, want 400", resp.StatusCode)
	}
	// Oversized inline graphs are bounded.
	huge := inlineSobel(t, false)
	for len(huge.Graph.Nodes) <= maxAccelNodes {
		huge.Graph.Nodes = append(huge.Graph.Nodes, huge.Graph.Nodes...)
	}
	if code := postJSON(t, ts.URL+"/v1/pipelines",
		PipelineRequest{Accelerator: huge, Library: tinyLibrary(1), Images: images}, &e); code != http.StatusBadRequest {
		t.Errorf("oversized accelerator: status %d, want 400", code)
	}
}

// TestConcurrentIdenticalLibrariesCoalesce submits the same library build
// on several workers at once and checks only one build actually ran — the
// rest coalesced onto it (or hit the cache it filled).
func TestConcurrentIdenticalLibrariesCoalesce(t *testing.T) {
	const n = 4
	s, ts := testServer(t, Options{Workers: n})

	req := LibraryRequest{
		Specs: []SpecRequest{{Op: "add10", Count: 60}, {Op: "mul6", Count: 60}},
		Seed:  9,
	}
	jobs := make([]JobInfo, n)
	for i := range jobs {
		if code := postJSON(t, ts.URL+"/v1/libraries", req, &jobs[i]); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	var fresh int
	var key string
	for i := range jobs {
		r := waitJob(t, ts.URL, jobs[i].ID)
		if r.State != JobSucceeded {
			t.Fatalf("job %d: state %s, error %q", i, r.State, r.Error)
		}
		var lr LibraryResult
		if err := json.Unmarshal(r.Result, &lr); err != nil {
			t.Fatalf("job %d: decode: %v", i, err)
		}
		if key == "" {
			key = lr.Key
		} else if lr.Key != key {
			t.Fatalf("job %d returned key %s, want %s", i, lr.Key, key)
		}
		if !r.Cached {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d of %d identical concurrent builds ran fresh, want exactly 1", fresh, n)
	}
	st := s.CacheStats()
	if st.Coalesced == 0 {
		// Jobs may serialize if workers pick them up far apart; with n
		// back-to-back submissions on n workers at least one should have
		// coalesced.  Treat zero as a failure only when no cache hit
		// covered it either.
		if st.Hits == 0 {
			t.Errorf("no coalescing and no cache hits across identical concurrent builds: %+v", st)
		}
	}
}

// TestJobList checks the jobs index endpoint.
func TestJobList(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	var job JobInfo
	postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(1), &job)
	waitJob(t, ts.URL, job.ID)
	var list []JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET jobs: status %d", code)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("job list %v does not contain %s", list, job.ID)
	}
}
