package axserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"autoax/internal/obs"
)

// progFiles returns the compiled-program entry files in dir and their
// summed size.
func progFiles(t *testing.T, dir string) (n int, total, largest int64) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".prog") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		n++
		total += info.Size()
		largest = max(largest, info.Size())
	}
	return n, total, largest
}

// runPipelineOn runs tinyPipeline(seed) on a fresh server over opts,
// shuts the server down, and returns the job's raw result.
func runPipelineOn(t *testing.T, opts Options, seed int64) []byte {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	info := runTinyPipeline(t, ts.URL, seed)
	if info.State != JobSucceeded {
		t.Fatalf("pipeline job ended %s: %s", info.State, info.Error)
	}
	return info.Result
}

// TestServerProgramDirRoundTrip pins the server's program directory end
// to end.  A second server over the same directory reruns a pipeline with
// zero compiles and the identical result.  Two concurrent pipeline jobs
// share one directory handle, so the byte budget holds for the directory
// as a whole rather than once per job.
func TestServerProgramDirRoundTrip(t *testing.T) {
	misses := obs.Default().Counter("autoax_progcache_misses_total")
	hits := obs.Default().Counter("autoax_progcache_hits_total")

	dir := t.TempDir()
	before := misses.Value()
	want := runPipelineOn(t, Options{Workers: 1, ProgramCacheDir: dir}, 11)
	if misses.Value() == before {
		t.Fatal("cold run compiled nothing")
	}
	n, _, entry := progFiles(t, dir)
	if n == 0 {
		t.Fatal("cold run persisted no programs")
	}

	before, beforeHits := misses.Value(), hits.Value()
	got := runPipelineOn(t, Options{Workers: 1, ProgramCacheDir: dir}, 11)
	if c := misses.Value() - before; c != 0 {
		t.Fatalf("warm restart compiled %d configurations, want 0", c)
	}
	if hits.Value() == beforeHits {
		t.Fatal("warm restart served nothing from the program directory")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm restart result differs:\n%s\nvs\n%s", got, want)
	}

	// About two entries' worth of budget, two jobs at once.
	budget := 2 * entry
	tight := t.TempDir()
	s, ts := testServer(t, Options{Workers: 2, ProgramCacheDir: tight, ProgramCacheBytes: budget})
	ids := make([]string, 2)
	for i, seed := range []int64{11, 12} {
		var job JobInfo
		if code := postJSON(t, ts.URL+"/v1/pipelines", tinyPipeline(seed), &job); code != http.StatusAccepted {
			t.Fatalf("submit pipeline: status %d", code)
		}
		ids[i] = job.ID
	}
	for _, id := range ids {
		if info := waitJob(t, ts.URL, id); info.State != JobSucceeded {
			t.Fatalf("pipeline %s ended %s: %s", id, info.State, info.Error)
		}
	}
	s.programs.Flush()
	n, total, _ := progFiles(t, tight)
	if total > budget && n > 1 {
		t.Fatalf("%d program files hold %d bytes against a %d-byte budget", n, total, budget)
	}
}
