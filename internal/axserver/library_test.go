package axserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestLibraryDecodedOnce runs concurrent evaluate and pipeline jobs over
// one stored library.  The server decodes the library once and shares the
// value: the jobs answer bit for bit as a cold server does, one job at a
// time, and no job mutates the shared library.
func TestLibraryDecodedOnce(t *testing.T) {
	eval := func(cfgs ...[]int) EvaluateRequest {
		return EvaluateRequest{
			App:     "sobel",
			Library: tinyLibrary(1),
			Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
			Configs: cfgs,
		}
	}
	jobs := []struct {
		path string
		req  any
	}{
		{"/v1/evaluate", eval([]int{0, 0, 0, 0, 0}, []int{1, 0, 1, 0, 1})},
		{"/v1/evaluate", eval([]int{2, 1, 0, 1, 2}, []int{3, 3, 3, 3, 3})},
		{"/v1/pipelines", tinyPipeline(11)},
		{"/v1/pipelines", tinyPipeline(12)},
	}

	// The reference: a cold server running the jobs one at a time; its
	// first job builds the library.
	_, cold := testServer(t, Options{Workers: 1})
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		var job JobInfo
		if code := postJSON(t, cold.URL+j.path, j.req, &job); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", j.path, code)
		}
		info := waitJob(t, cold.URL, job.ID)
		if info.State != JobSucceeded {
			t.Fatalf("cold %s ended %s: %s", j.path, info.State, info.Error)
		}
		want[i] = info.Result
	}

	s, ts := testServer(t, Options{Workers: len(jobs)})
	var lib JobInfo
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(1), &lib); code != http.StatusAccepted {
		t.Fatalf("submit library: status %d", code)
	}
	if info := waitJob(t, ts.URL, lib.ID); info.State != JobSucceeded {
		t.Fatalf("library ended %s: %s", info.State, info.Error)
	}
	before := libraryDecodes.Value()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		var job JobInfo
		if code := postJSON(t, ts.URL+j.path, j.req, &job); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", j.path, code)
		}
		ids[i] = job.ID
	}
	for i, id := range ids {
		info := waitJob(t, ts.URL, id)
		if info.State != JobSucceeded {
			t.Fatalf("%s ended %s: %s", jobs[i].path, info.State, info.Error)
		}
		if !bytes.Equal(info.Result, want[i]) {
			t.Errorf("%s result differs from the cold server's:\n%s\nvs\n%s", jobs[i].path, info.Result, want[i])
		}
	}
	if n := libraryDecodes.Value() - before; n != 1 {
		t.Errorf("library decoded %d times, want 1", n)
	}

	key, err := tinyLibrary(1).Key()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := s.LibraryBytes(key)
	if !ok {
		t.Fatal("library not cached")
	}
	s.libMu.Lock()
	e, ok := s.libs.Get(key)
	s.libMu.Unlock()
	if !ok {
		t.Fatal("decoded library not memoized")
	}
	got, err := json.Marshal(e.lib)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stored) {
		t.Error("a job mutated the shared library: it no longer marshals to its stored bytes")
	}
}

// TestDecodeLibraryChecksBytes pins the memo's hit rule: a decoded
// library is served again only for equal bytes, and a decode error is
// returned every time rather than memoized.
func TestDecodeLibraryChecksBytes(t *testing.T) {
	s, _ := testServer(t, Options{Workers: 1})
	lib, _, _, err := s.resolveLibrary(t.Context(), tinyLibrary(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	before := libraryDecodes.Value()
	first, err := s.decodeLibrary("k", b)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.decodeLibrary("k", bytes.Clone(b)); err != nil || again != first {
		t.Errorf("equal bytes decoded again (err %v)", err)
	}
	// The same library behind other bytes (JSON with a trailing newline)
	// is decoded afresh.
	other, err := s.decodeLibrary("k", append(bytes.Clone(b), '\n'))
	if err != nil || other == first {
		t.Errorf("other bytes served from the memo (err %v)", err)
	}
	for range 2 {
		if _, err := s.decodeLibrary("k", []byte("{corrupt")); err == nil {
			t.Error("corrupt bytes decoded")
		}
	}
	if n := libraryDecodes.Value() - before; n != 4 {
		t.Errorf("%d decodes, want 4: first, other bytes, corrupt twice", n)
	}
}
