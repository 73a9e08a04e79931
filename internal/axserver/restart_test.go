package axserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// crash simulates a kill -9: stop the process's pieces without draining,
// journaling a shutdown marker, or giving jobs a chance to finish
// cleanly.  Running jobs abort mid-stage (their journal records stay
// incomplete); nothing beyond what was already fsynced survives — which
// is exactly the write-ahead journal's durability contract.
func crash(s *Server) {
	s.stopping.Store(true)
	s.cancelBase()
	s.pool.Close()
	if s.journal != nil {
		s.journal.close()
	}
}

// TestCrashRestartReplaysPipeline is the tentpole e2e: a pipeline job is
// accepted, makes at least one stage of progress, and the server dies
// without warning.  A second server over the same journal and cache
// directories must resurface the job under its original ID (so pollers
// reconnect), re-run it, and produce a result bit-identical to an
// uninterrupted run.
func TestCrashRestartReplaysPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline run")
	}
	journalDir := t.TempDir()
	cacheDir := t.TempDir()
	// Sized beyond tinyPipeline so the crash window — running, mid-stage,
	// progress visible — is wide enough to hit deterministically.
	req := tinyPipeline(7)
	req.TrainConfigs, req.TestConfigs, req.SearchEvals = 48, 24, 4000

	// Control: the same request on an isolated server, never interrupted.
	control, err := New(Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New control: %v", err)
	}
	defer control.Close()
	ctrlInfo, err := control.SubmitPipeline(req)
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	ctrlJob := awaitTerminal(t, control, ctrlInfo.ID)
	if ctrlJob.State != JobSucceeded {
		t.Fatalf("control job ended %s: %s", ctrlJob.State, ctrlJob.Error)
	}

	// First incarnation: accept the job, let it make progress, crash.
	s1, err := New(Options{Workers: 2, CacheDir: cacheDir, JournalDir: journalDir})
	if err != nil {
		t.Fatalf("New s1: %v", err)
	}
	info, err := s1.SubmitPipeline(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, ok := s1.manager.Get(info.ID)
		if !ok {
			t.Fatalf("job %s vanished", info.ID)
		}
		if got.State == JobRunning && got.Stage != "" && got.Progress > 0 {
			break // >= 1 stage of measurable progress
		}
		if got.State.Terminal() {
			t.Fatalf("job finished (%s) before the crash window", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	crash(s1)

	// Second incarnation over the same directories.
	s2, err := New(Options{Workers: 2, CacheDir: cacheDir, JournalDir: journalDir})
	if err != nil {
		t.Fatalf("New s2: %v", err)
	}
	defer s2.Close()
	replayed, ok := s2.manager.Get(info.ID)
	if !ok {
		t.Fatalf("job %s not replayed after restart", info.ID)
	}
	if !replayed.Replayed {
		t.Fatal("replayed job not marked Replayed")
	}
	if !replayed.Created.Equal(info.Created) {
		t.Fatalf("replay changed Created: %v vs %v", replayed.Created, info.Created)
	}
	if st := s2.Stats(); st.Journal == nil || st.Journal.Replayed != 1 {
		t.Fatalf("journal stats after replay: %+v", st.Journal)
	}
	final := awaitTerminal(t, s2, info.ID)
	if final.State != JobSucceeded {
		t.Fatalf("replayed job ended %s: %s", final.State, final.Error)
	}
	if !bytes.Equal(final.Result, ctrlJob.Result) {
		t.Fatalf("replayed result differs from uninterrupted run:\n%s\nvs\n%s",
			final.Result, ctrlJob.Result)
	}

	// New jobs on the restarted server must not reuse the replayed ID's
	// sequence.
	next, err := s2.SubmitLibrary(tinyLibrary(2))
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if next.ID == info.ID {
		t.Fatalf("restarted server reused job ID %s", next.ID)
	}
	awaitTerminal(t, s2, next.ID)
}

// TestReplayIgnoresParallelismField: journals written before requests
// lost their "parallelism" field still replay.  Submit records whose
// request JSON carries "parallelism":2 decode leniently on replay, run to
// success, and land under the same content keys as live requests.
func TestReplayIgnoresParallelismField(t *testing.T) {
	journalDir := t.TempDir()
	eval := EvaluateRequest{
		App:     "sobel",
		Library: tinyLibrary(1),
		Images:  ImageSpec{Count: 2, Width: 32, Height: 24, Seed: 5},
		Configs: [][]int{{0, 0, 0, 0, 0}, {1, 0, 1, 0, 1}},
	}
	pipe := tinyPipeline(11)
	j, _, _, err := openJournal(journalDir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i, rec := range []struct {
		kind string
		req  any
	}{{"evaluate", eval}, {"pipeline", pipe}} {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := j.appendSubmit(i+1, id, rec.kind, created, withField(t, rec.req, "parallelism", 2)); err != nil {
			t.Fatalf("appendSubmit %s: %v", id, err)
		}
	}
	j.close()

	s, err := New(Options{Workers: 1, JournalDir: journalDir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	for _, id := range []string{"job-000001", "job-000002"} {
		final := awaitTerminal(t, s, id)
		if final.State != JobSucceeded || !final.Replayed {
			t.Fatalf("%s: state %s (replayed %v), error %q", id, final.State, final.Replayed, final.Error)
		}
	}
	// The replayed jobs filled the cache under the live requests' keys.
	for _, submit := range []func() (JobInfo, error){
		func() (JobInfo, error) { return s.SubmitEvaluate(eval) },
		func() (JobInfo, error) { return s.SubmitPipeline(pipe) },
	} {
		info, err := submit()
		if err != nil {
			t.Fatalf("live submit: %v", err)
		}
		if final := awaitTerminal(t, s, info.ID); final.State != JobSucceeded || !final.Cached {
			t.Fatalf("%s %s: state %s, cached %v", final.Kind, info.ID, final.State, final.Cached)
		}
	}
}

// awaitTerminal polls the manager until the job is terminal.
func awaitTerminal(t *testing.T, s *Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		info, ok := s.manager.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
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

// holdWorker occupies one pool worker with a job that blocks until the
// returned release function is called.  The job bypasses submit() — it
// is not journaled and consumes no admission slot — so tests get a
// deterministic busy worker regardless of machine speed.
func holdWorker(t *testing.T, s *Server) (id string, release func()) {
	t.Helper()
	ch := make(chan struct{})
	j := s.manager.Create(s.base, "test", func(ctx context.Context) (any, bool, error) {
		select {
		case <-ch:
			return "released", false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	})
	if !s.pool.EnqueueReplay(j, 0) {
		t.Fatal("holdWorker: submit rejected")
	}
	waitRunning(t, s, j.ID())
	var once sync.Once
	return j.ID(), func() { once.Do(func() { close(ch) }) }
}

// TestDrainLifecycle walks the crash-safe shutdown: BeginDrain flips
// healthz to "draining", sheds new submissions and shard requests with
// typed 503s, lets polling continue, finishes in-flight work, and
// leaves queued jobs journaled for the next boot to replay.
func TestDrainLifecycle(t *testing.T) {
	journalDir := t.TempDir()
	cacheDir := t.TempDir()
	s, ts := testServer(t, Options{Workers: 1, CacheDir: cacheDir, JournalDir: journalDir})

	// Occupy the only worker, queue a journaled library build behind it.
	blockerID, release := holdWorker(t, s)
	defer release()
	queued, err := s.SubmitLibrary(tinyLibrary(3))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	var hz HealthzResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d while draining", code)
	}
	if hz.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", hz.Status)
	}
	var env errorBody
	if code := postJSON(t, ts.URL+"/v1/libraries", tinyLibrary(4), &env); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	if env.Code != "draining" {
		t.Fatalf("submit rejection code %q, want draining", env.Code)
	}
	if _, err := s.SubmitLibrary(tinyLibrary(4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("SubmitLibrary while draining: %v, want ErrDraining", err)
	}
	var shardEnv errorBody
	shardReq := SearchShardRequest{Version: 1}
	if code := postJSON(t, ts.URL+"/v1/search/shards", shardReq, &shardEnv); code != http.StatusServiceUnavailable {
		t.Fatalf("shard while draining: status %d, want 503", code)
	}
	if shardEnv.Code != codeDraining {
		t.Fatalf("shard rejection code %q, want %s", shardEnv.Code, codeDraining)
	}
	// Polling stays available throughout the drain.
	var polled JobInfo
	if code := getJSON(t, ts.URL+"/v1/jobs/"+queued.ID, &polled); code != http.StatusOK {
		t.Fatalf("poll while draining: status %d", code)
	}
	if polled.State != JobQueued {
		t.Fatalf("queued job state %s during drain", polled.State)
	}

	// An already-expired drain deadline surfaces as an error (the CLI
	// then proceeds to Close, checkpointing whatever is still in flight).
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with expired ctx: %v", err)
	}

	// Release the in-flight job: the drain completes with its result
	// intact and the worker exits without touching the queue.
	release()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if info := awaitTerminal(t, s, blockerID); info.State != JobSucceeded {
		t.Fatalf("in-flight job ended %s during drain", info.State)
	}
	if info, _ := s.manager.Get(queued.ID); info.State != JobQueued {
		t.Fatalf("queued job state %s after drain, want queued", info.State)
	}
	s.Close()

	// Next boot: the queued job replays under its ID and completes.
	s2, err := New(Options{Workers: 2, CacheDir: cacheDir, JournalDir: journalDir})
	if err != nil {
		t.Fatalf("New after drain: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Journal == nil || st.Journal.Replayed != 1 {
		t.Fatalf("replayed = %+v, want 1 job", st.Journal)
	}
	lib := awaitTerminal(t, s2, queued.ID)
	if lib.State != JobSucceeded || !lib.Replayed {
		t.Fatalf("queued job after replay: state=%s replayed=%v", lib.State, lib.Replayed)
	}
}

// waitRunning polls until the job occupies a worker.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, ok := s.manager.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if info.State == JobRunning {
			return
		}
		if info.State.Terminal() {
			t.Fatalf("job %s ended %s before running check", id, info.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFullAdmission checks the server-level 429 contract: past
// -max-queue, submissions return a typed QueueFullError over the API
// (429, code queue_full, Retry-After >= 1s), no phantom job is created,
// and the rejection clears once the queue moves.
func TestQueueFullAdmission(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, MaxQueue: 1, CacheDir: t.TempDir()})

	_, release := holdWorker(t, s)
	defer release()
	queued, err := s.SubmitLibrary(tinyLibrary(5))
	if err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	// Typed error from the Go API...
	_, err = s.SubmitLibrary(tinyLibrary(6))
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("submit past bound: %v, want *QueueFullError", err)
	}
	if full.QueueLen != 1 || full.RetryAfter < time.Second {
		t.Fatalf("rejection snapshot %+v", full)
	}

	// ...and 429 + Retry-After + code over HTTP.
	b, err := json.Marshal(tinyLibrary(6))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/libraries", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q", ra)
	}
	var env errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Code != "queue_full" {
		t.Fatalf("code %q, want queue_full", env.Code)
	}

	// The shed submission left no phantom job behind (the blocker and
	// the queued library are the only tracked jobs).
	if n := len(s.manager.List()); n != 2 {
		t.Fatalf("%d jobs tracked after rejection, want 2", n)
	}
	if st := s.Stats(); st.QueueLen != 1 {
		t.Fatalf("QueueLen = %d", st.QueueLen)
	}

	// Releasing the worker drains the queue; the rejection then clears —
	// the "axclient submits succeed after backoff" half of the contract.
	release()
	awaitTerminal(t, s, queued.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := s.SubmitLibrary(tinyLibrary(6)); err == nil {
			break
		} else if !errors.As(err, &full) {
			t.Fatalf("submit after release: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never freed after release")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
