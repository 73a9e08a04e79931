// Package axserver exposes the autoAx methodology as an asynchronous
// HTTP/JSON job service: library builds (POST /v1/libraries), precise
// configuration evaluation (POST /v1/evaluate) and full methodology runs
// (POST /v1/pipelines) are accepted as jobs, executed on a bounded worker
// pool in FIFO order, and polled via GET /v1/jobs/{id}.  DELETE
// /v1/jobs/{id} cancels a job — queued jobs immediately, running jobs at
// their next pipeline-stage checkpoint via context cancellation.
//
// Accelerators are first-class request resources: evaluate and pipeline
// requests name a built-in case study ("app") or carry an inline
// wire-format accelerator graph ("accelerator", see accel.WireApp), so
// the service is not limited to the paper's three workloads.
//
// Expensive artifacts are content-addressed: a library build is keyed by
// the canonical hash of its (specs, seed, options), and evaluate/pipeline
// results by the canonical hash of (library key, accelerator canonical
// hash, remaining request).  The accelerator hash is name-invariant, so a
// named app and its inline-serialized equivalent — or two structurally
// identical custom graphs — share one cache entry.  Repeated identical
// requests are served from an in-memory + on-disk cache without
// recomputation, and concurrent identical requests coalesce onto a single
// computation (singleflight).  This is the paper's central economics —
// the one-time cost of library construction and model training amortized
// over many design queries — turned into a service boundary.
package axserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/fleet"
	"autoax/internal/ml"
	"autoax/internal/store"
)

// Options configures a Server.  Workers bounds how many jobs run at once;
// within a job every batch — library characterization, precise
// evaluation, model fits, search scoring — runs on GOMAXPROCS goroutines,
// with results bit-identical at any GOMAXPROCS.  Concurrent jobs share
// the cores through the runtime scheduler.
type Options struct {
	// Workers bounds concurrent job execution (default GOMAXPROCS).
	Workers int
	// CacheDir persists content-addressed artifacts across restarts;
	// empty keeps the cache in memory only.
	CacheDir string
	// MemCacheBytes bounds the in-memory artifact cache: beyond this many
	// bytes, least-recently-used entries are evicted (they remain
	// reachable through the disk tier when CacheDir is set).  0 keeps the
	// memory tier unbounded.
	MemCacheBytes int64
	// DiskCacheBytes bounds the on-disk artifact tier the same way:
	// beyond this many bytes the least-recently-used cache files are
	// deleted.  0 keeps the disk tier unbounded; ignored without a
	// CacheDir.
	DiskCacheBytes int64
	// DiskCacheTTL bounds the disk tier by wall clock: cache files idle
	// longer than this are deleted regardless of the byte budget, so a
	// long-lived fleet worker's artifact store cannot accumulate stale
	// libraries forever.  0 disables expiry; ignored without a CacheDir.
	DiskCacheTTL time.Duration
	// ProgramCacheDir persists the synthesized accelerator netlists
	// (one simplified netlist per configuration) across restarts:
	// pipelines and shard-model builds decode and compile previously
	// synthesized configurations instead of re-synthesizing them.
	// Writes are best-effort and happen off the request path; Close
	// flushes the ones still queued.  Empty synthesizes every
	// configuration.
	ProgramCacheDir string
	// ProgramCacheBytes bounds the program directory's total bytes by
	// LRU eviction; 0 means accel.DefaultProgramDiskBytes.  Ignored
	// without a ProgramCacheDir.
	ProgramCacheBytes int64
	// ProgramCacheTTL deletes program entries idle longer than this
	// (0 disables expiry).  Ignored without a ProgramCacheDir.
	ProgramCacheTTL time.Duration
	// JournalDir enables the write-ahead job journal: accepted jobs are
	// recorded durably before they are enqueued, and a server restarted
	// over the same directory replays every job that had not reached a
	// terminal state — in submission order, under the original job IDs.
	// Empty disables the journal (jobs die with the process).
	JournalDir string
	// MaxQueue bounds the jobs waiting for a worker; past it new
	// submissions are rejected with a typed QueueFullError (HTTP 429
	// with Retry-After).  0 keeps the queue unbounded.
	MaxQueue int
	// MaxQueueBytes bounds the request-payload bytes retained by waiting
	// jobs the same way.  0 keeps the budget unbounded.
	MaxQueueBytes int64
	// Logger receives structured lifecycle events (job.accept, job.start,
	// job.done, job.cancel, cache.selfheal).  nil discards them.
	Logger *slog.Logger
}

// Server owns the job manager, the worker pool and the artifact cache.
// Create with New, mount Handler on an http.Server, and Close on shutdown.
type Server struct {
	opts  Options
	cache *Cache
	// programs is the persistent compiled-program directory (nil without
	// a ProgramCacheDir), opened once and shared by every evaluator.
	programs *accel.ProgramDir
	manager  *Manager
	pool     *Pool
	logger   *slog.Logger

	// base is the lifetime of all jobs; cancelling it aborts running work.
	base       context.Context
	cancelBase context.CancelFunc
	started    time.Time

	// journal is the write-ahead job log (nil without a JournalDir).
	journal *journal
	// draining marks the load-shedding phase: new submissions and shard
	// requests are rejected while in-flight jobs run to completion.
	draining atomic.Bool
	// stopping marks Close in progress; jobs force-cancelled by the
	// shutdown keep their journal records incomplete (they replay on the
	// next boot) instead of being journaled as user cancellations.
	stopping atomic.Bool

	// Fleet shard execution (POST /v1/search/shards): shardSem bounds
	// concurrent synchronous shard runs to the worker-pool size, and
	// models memoizes trained model contexts (see sharedModels), built
	// through modelFlight, at a cost of 1 each under modelCacheEntries.
	shardSem    chan struct{}
	modelMu     sync.Mutex
	models      store.LRU[string, *dse.Models]
	modelFlight store.Flight[string, *dse.Models]

	// libs memoizes decoded libraries by canonical key (see
	// decodeLibrary), at a cost of 1 each under libraryMemoEntries;
	// libFlight coalesces concurrent first decodes of one key.
	libMu     sync.Mutex
	libs      store.LRU[string, decodedLibrary]
	libFlight store.Flight[string, decodedLibrary]
}

// New validates the options and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("axserver: workers must be positive, got %d", opts.Workers)
	}
	if opts.MemCacheBytes < 0 {
		return nil, fmt.Errorf("axserver: memory cache budget must be non-negative, got %d", opts.MemCacheBytes)
	}
	if opts.DiskCacheBytes < 0 {
		return nil, fmt.Errorf("axserver: disk cache budget must be non-negative, got %d", opts.DiskCacheBytes)
	}
	if opts.DiskCacheTTL < 0 {
		return nil, fmt.Errorf("axserver: disk cache TTL must be non-negative, got %v", opts.DiskCacheTTL)
	}
	if opts.ProgramCacheBytes < 0 {
		return nil, fmt.Errorf("axserver: program cache budget must be non-negative, got %d", opts.ProgramCacheBytes)
	}
	if opts.ProgramCacheTTL < 0 {
		return nil, fmt.Errorf("axserver: program cache TTL must be non-negative, got %v", opts.ProgramCacheTTL)
	}
	cache, err := NewCache(CacheConfig{Dir: opts.CacheDir, MemBytes: opts.MemCacheBytes, DiskBytes: opts.DiskCacheBytes, DiskTTL: opts.DiskCacheTTL})
	if err != nil {
		return nil, err
	}
	// One program directory per process: every pipeline job and
	// shard-model build shares this handle, so the byte budget and TTL
	// hold for the directory as a whole.
	programs, err := accel.OpenProgramDir(accel.ProgramCacheConfig{
		Dir:      opts.ProgramCacheDir,
		MaxBytes: opts.ProgramCacheBytes,
		TTL:      opts.ProgramCacheTTL,
	})
	if err != nil {
		return nil, err
	}
	if opts.MaxQueue < 0 {
		return nil, fmt.Errorf("axserver: max queue must be non-negative, got %d", opts.MaxQueue)
	}
	if opts.MaxQueueBytes < 0 {
		return nil, fmt.Errorf("axserver: max queue bytes must be non-negative, got %d", opts.MaxQueueBytes)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	base, cancel := context.WithCancel(context.Background())
	manager := NewManager()
	manager.logger = logger
	s := &Server{
		opts:       opts,
		cache:      cache,
		programs:   programs,
		manager:    manager,
		pool:       NewPool(manager, opts.Workers, opts.MaxQueue, opts.MaxQueueBytes),
		logger:     logger,
		base:       base,
		cancelBase: cancel,
		started:    time.Now(),
		shardSem:   make(chan struct{}, opts.Workers),
	}
	s.models.Budget = modelCacheEntries
	s.libs.Budget = libraryMemoEntries
	if opts.JournalDir != "" {
		jr, incomplete, maxSeq, err := openJournal(opts.JournalDir)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.journal = jr
		// The terminal hook must be installed before any replayed job can
		// finish, or its completion record would be lost.
		manager.onTerminal = s.journalTerminal
		manager.advanceSeq(maxSeq)
		if heals := jr.selfHeals.Load(); heals > 0 {
			logger.Warn("journal.selfheal", "records", heals)
		}
		for _, rec := range incomplete {
			s.replay(rec)
		}
		if n := len(incomplete); n > 0 {
			logger.Info("journal.replay", "jobs", n)
		}
	}
	return s, nil
}

// journalTerminal is the manager's terminal-state hook: every finished
// job writes a completion record so it is not replayed after a restart.
// Cancellations during Close are deliberately NOT recorded — those jobs
// were aborted by the shutdown, not resolved, and must replay on the
// next boot.
func (s *Server) journalTerminal(id string, state JobState) {
	if s.journal == nil {
		return
	}
	if state == JobCancelled && s.stopping.Load() {
		return
	}
	if err := s.journal.appendDone(id, state); err != nil {
		s.logger.Warn("journal.done", "job", id, "error", err.Error())
	}
}

// replay re-enqueues one incomplete journaled job under its original
// identity.  A record whose request no longer validates (a codec or
// validation change across versions) surfaces as a failed job rather
// than silently disappearing.
func (s *Server) replay(rec journalRecord) {
	run, err := s.recordRun(rec)
	if err != nil {
		replayErr := fmt.Errorf("replaying journaled %s job: %w", rec.Kind, err)
		run = func(context.Context) (any, bool, error) { return nil, false, replayErr }
	}
	j := s.manager.CreateReplay(s.base, rec.ID, rec.Seq, rec.Kind, rec.Created, run)
	s.pool.EnqueueReplay(j, int64(len(rec.Req)))
	s.journal.replayed.Add(1)
}

// Close cancels every job and waits for the workers to exit.  With a
// journal, jobs aborted by the shutdown (running or still queued) keep
// their records incomplete and replay on the next boot.  Compiled
// programs still queued for the program directory are written before it
// returns.
func (s *Server) Close() {
	s.stopping.Store(true)
	s.cancelBase()
	s.pool.Close()
	s.programs.Flush()
	if s.journal != nil {
		s.journal.close()
	}
}

// BeginDrain switches the server into load shedding: new submissions
// and shard requests are rejected (503, healthz reports "draining"),
// workers finish their current job and stop picking up queued ones.
// With a journal the queued jobs persist for the next boot; job polling
// stays available throughout so clients observe final states.
func (s *Server) BeginDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.pool.BeginDrain()
	s.logger.Info("server.draining")
}

// Drain begins draining (if not already begun) and waits until every
// in-flight job has finished or ctx expires.  On expiry the caller
// typically proceeds to Close, which cancels the survivors — with a
// journal they checkpoint as incomplete and replay on the next boot.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.pool.WaitIdle(ctx)
}

// Draining reports whether the server is in its load-shedding phase.
func (s *Server) Draining() bool { return s.draining.Load() }

// CacheStats returns the artifact cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Stats returns a service-health snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		Workers:       s.pool.Workers(),
		QueueLen:      s.pool.QueueLen(),
		QueueBytes:    s.pool.QueueBytes(),
		Draining:      s.draining.Load(),
		Jobs:          s.manager.Counts(),
		Cache:         s.cache.Stats(),
		UptimeSec:     time.Since(s.started).Seconds(),
		ShardProtocol: fleet.ProtocolVersion,
	}
	if s.journal != nil {
		js := s.journal.Stats()
		st.Journal = &js
	}
	return st
}

// ErrShuttingDown is returned by submissions racing Server.Close; the HTTP
// layer maps it to 503 so clients retry instead of treating the request as
// invalid.
var ErrShuttingDown = errors.New("axserver: server is shut down")

// ErrDraining is returned by submissions while the server sheds load
// ahead of a shutdown; the HTTP layer maps it to 503 with a "draining"
// code so clients fail over to another node.
var ErrDraining = errors.New("axserver: server is draining")

// errJournal marks a submission rejected because its write-ahead record
// could not be written durably — a server-side fault (500), not a
// client error: accepting the job anyway would break the crash-recovery
// promise.
var errJournal = errors.New("axserver: job journal write failed")

// submit admits, journals and enqueues a job.  The admission slot is
// reserved before the job exists (so a rejected burst never creates
// phantom jobs), the journal record is written before the job becomes
// runnable (write-ahead), and only then does the job enter the queue.
func (s *Server) submit(kind string, req any, run runFunc) (JobInfo, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return JobInfo{}, fmt.Errorf("axserver: encoding %s request: %w", kind, err)
	}
	if s.draining.Load() {
		jobsRejected("draining").Inc()
		return JobInfo{}, ErrDraining
	}
	cost := int64(len(payload))
	if err := s.pool.Reserve(cost); err != nil {
		var full *QueueFullError
		if errors.As(err, &full) {
			jobsRejected("queue_full").Inc()
			s.logger.Warn("job.reject", "kind", kind, "reason", "queue_full",
				"queue_len", full.QueueLen, "queue_bytes", full.QueueBytes)
		} else {
			jobsRejected("unavailable").Inc()
		}
		return JobInfo{}, err
	}
	j := s.manager.Create(s.base, kind, run)
	if s.journal != nil {
		if err := s.journal.appendSubmit(j.seq, j.ID(), kind, j.info.Created, payload); err != nil {
			s.pool.Release(cost)
			s.manager.Cancel(j.ID())
			s.logger.Error("journal.submit", "job", j.ID(), "error", err.Error())
			return JobInfo{}, fmt.Errorf("%w: %v", errJournal, err)
		}
	}
	if !s.pool.Enqueue(j, cost) {
		// Never executed: cancel so it doesn't linger as a phantom
		// queued job.
		s.manager.Cancel(j.ID())
		if s.draining.Load() {
			return JobInfo{}, ErrDraining
		}
		return JobInfo{}, ErrShuttingDown
	}
	info, _ := s.manager.Get(j.ID())
	return info, nil
}

// Cache keyspaces, one per content-addressed artifact kind.  A keyspace
// carries a version when the same request starts producing a different
// artifact, so a durable cache written by an older server can never serve
// the old answer: pipeline/2/ began when explore split budgets of two or
// more climbs' worth into independent climbs (pipeline/ held single-climb
// archives).
const (
	libraryKeyspace  = "library/"
	evaluateKeyspace = "evaluate/"
	pipelineKeyspace = "pipeline/2/"
)

// resolveLibrary returns the library for a request, served from the cache
// when an identical build exists and coalesced with any identical build
// already in flight.  On a miss the library is built (checking ctx between
// circuit characterizations), stored under its canonical key, and
// returned; cached reports whether a computation was avoided.  Stored
// bytes are decoded through decodeLibrary, so the returned library may be
// shared with every other job over the same key: callers must not mutate
// it.
func (s *Server) resolveLibrary(ctx context.Context, req LibraryRequest) (lib *acl.Library, key string, cached bool, err error) {
	specs, seed, opts, err := req.buildInputs()
	if err != nil {
		return nil, "", false, err
	}
	key = acl.CanonicalKey(specs, seed, opts)
	lib, cached, err = cachedArtifact(s, ctx, libraryKeyspace+key,
		func() (*acl.Library, error) { return acl.BuildContext(ctx, specs, seed, opts) },
		func(l *acl.Library) ([]byte, error) { return json.Marshal(l) },
		func(b []byte) (*acl.Library, error) { return s.decodeLibrary(key, b) })
	if err != nil {
		return nil, "", false, err
	}
	return lib, key, cached, nil
}

// libraryMemoEntries bounds the decoded-library memo.  A decoded library
// is a few MB at most at bench scale, and a server typically serves one
// or two libraries at a time, so the cap is small.
const libraryMemoEntries = 4

// decodedLibrary is one memo entry: a library and the bytes it was
// decoded from.
type decodedLibrary struct {
	bytes []byte
	lib   *acl.Library
}

// decodeLibrary returns the library serialized in b, the stored bytes of
// canonical key.  The decoded value is memoized per key and served again
// only for bytes equal to the ones it was decoded from (the memory tier
// hands out the same slice, so the check is cheap); concurrent first
// decodes of a key share one.  Decode errors are not memoized, so a
// corrupt entry still self-heals.  Every decode counts in
// libraryDecodes.  The result is shared read-only by every caller.
func (s *Server) decodeLibrary(key string, b []byte) (*acl.Library, error) {
	memo := func() (*acl.Library, bool) {
		s.libMu.Lock()
		e, ok := s.libs.Get(key)
		s.libMu.Unlock()
		return e.lib, ok && bytes.Equal(e.bytes, b)
	}
	if lib, ok := memo(); ok {
		return lib, nil
	}
	// The wait is not bounded by a job context: a decode is bounded by
	// the size of b, and a cancelled wait must not read as corrupt bytes.
	e, _, err := s.libFlight.Do(context.Background(), key, func() (decodedLibrary, error) {
		if lib, ok := memo(); ok {
			return decodedLibrary{b, lib}, nil
		}
		libraryDecodes.Inc()
		lib, err := acl.LoadBytes(b)
		if err != nil {
			return decodedLibrary{}, err
		}
		e := decodedLibrary{b, lib}
		s.libMu.Lock()
		s.libs.Put(key, e, 1)
		s.libMu.Unlock()
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(e.bytes, b) {
		// A concurrent caller decoded other bytes for this key.
		libraryDecodes.Inc()
		return acl.LoadBytes(b)
	}
	return e.lib, nil
}

// LibraryBytes returns the serialized cached library for a canonical key.
func (s *Server) LibraryBytes(key string) ([]byte, bool) {
	return s.cache.Get(libraryKeyspace + key)
}

// libraryRun validates a library request and returns its runFunc — the
// shared factory behind live submissions and journal replay.
func (s *Server) libraryRun(req LibraryRequest) (runFunc, error) {
	if _, err := req.Key(); err != nil { // validate before queueing
		return nil, err
	}
	return func(ctx context.Context) (any, bool, error) {
		lib, key, cached, err := s.resolveLibrary(ctx, req)
		if err != nil {
			return nil, false, err
		}
		ops := make(map[string]int, len(lib.Circuits))
		for op, cs := range lib.Circuits {
			ops[op] = len(cs)
		}
		return LibraryResult{Key: key, Size: lib.Size(), Ops: ops}, cached, nil
	}, nil
}

// SubmitLibrary enqueues a library-build job.
func (s *Server) SubmitLibrary(req LibraryRequest) (JobInfo, error) {
	return libraryJobs.submit(s, req)
}

// SubmitEvaluate enqueues a precise-evaluation job.
func (s *Server) SubmitEvaluate(req EvaluateRequest) (JobInfo, error) {
	return evaluateJobs.submit(s, req)
}

// SubmitPipeline enqueues a full methodology run.
func (s *Server) SubmitPipeline(req PipelineRequest) (JobInfo, error) {
	return pipelineJobs.submit(s, req)
}

// maxEvalConfigs caps the configurations one evaluate job may carry, so a
// single submission cannot monopolize a worker indefinitely; larger sweeps
// are split across jobs (which then interleave fairly in the FIFO queue).
const maxEvalConfigs = 10000

// evaluateRun validates an evaluate request and returns its runFunc.  The
// configuration space is the full (unreduced) library per operation node,
// indices in stored area-sorted order.
func (s *Server) evaluateRun(req EvaluateRequest) (runFunc, error) {
	app, key, err := prepare(req)
	if err != nil {
		return nil, err
	}
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("evaluate request needs at least one configuration")
	}
	if len(req.Configs) > maxEvalConfigs {
		return nil, fmt.Errorf("evaluate request carries %d configurations, limit is %d per job",
			len(req.Configs), maxEvalConfigs)
	}
	return cachedRun(s, evaluateKeyspace+key, func(ctx context.Context) (EvaluateResult, error) {
		return s.computeEvaluate(ctx, req, app)
	}), nil
}

// pipelineRun validates a pipeline request and returns its runFunc.
func (s *Server) pipelineRun(req PipelineRequest) (runFunc, error) {
	app, key, err := prepare(req)
	if err != nil {
		return nil, err
	}
	if _, err := dse.SearchEngineByName(req.Search.Engine); err != nil {
		return nil, err
	}
	req = req.normalized()
	return cachedRun(s, pipelineKeyspace+key, func(ctx context.Context) (PipelineResult, error) {
		return s.computePipeline(ctx, req, app)
	}), nil
}

// cachedArtifact is the shared content-addressed execution protocol: the
// artifact for key is served from the cache when present, coalesced onto
// an identical computation already in flight, or computed once and
// stored.  A corrupt stored artifact is dropped and recomputed on a
// second (final) round so it cannot poison the key forever.  shared
// reports whether a computation was avoided.
func cachedArtifact[T any](s *Server, ctx context.Context, key string,
	compute func() (T, error),
	encode func(T) ([]byte, error),
	decode func([]byte) (T, error)) (out T, shared bool, err error) {
	var zero T
	for attempt := 0; attempt < 2; attempt++ {
		var computed *T
		b, shared, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
			res, err := compute()
			if err != nil {
				return nil, err
			}
			computed = &res
			return encode(res)
		})
		if err != nil {
			return zero, false, err
		}
		if computed != nil {
			return *computed, false, nil
		}
		res, err := decode(b)
		if err == nil {
			return res, shared, nil
		}
		// Self-heal corrupt entries: drop and recompute on the next round.
		s.cache.Delete(key)
		cacheSelfHeal.Inc()
		s.logger.Warn("cache.selfheal", "key", key, "error", err.Error())
	}
	return zero, false, fmt.Errorf("axserver: artifact %s: stored bytes corrupt after recompute", key)
}

// computeEvaluate evaluates an evaluate request's configurations over its
// resolved accelerator.
func (s *Server) computeEvaluate(ctx context.Context, req EvaluateRequest, app *accel.ImageApp) (EvaluateResult, error) {
	var zero EvaluateResult
	lib, key, _, err := s.resolveLibrary(ctx, req.Library)
	if err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	ev, err := accel.NewEvaluator(app, buildImages(req.Images))
	if err != nil {
		return zero, err
	}
	ops := app.Graph.OpNodes()
	space := make(dse.Space, len(ops))
	for i, id := range ops {
		op := app.Graph.Nodes[id].Op
		space[i] = lib.For(op)
		if len(space[i]) == 0 {
			return zero, fmt.Errorf("library %s has no circuits for %s", key, op)
		}
	}
	for ci, cfg := range req.Configs {
		if len(cfg) != len(space) {
			return zero, fmt.Errorf("config %d has %d indices, app %s has %d operations",
				ci, len(cfg), app.Name, len(space))
		}
		for i, idx := range cfg {
			if idx < 0 || idx >= len(space[i]) {
				return zero, fmt.Errorf("config %d: index %d out of range for operation %d (%d circuits)",
					ci, idx, i, len(space[i]))
			}
		}
	}
	// Live progress: one "evaluate" stage counting finished configurations.
	var onDone func()
	if observe := stageObserver(ctx); observe != nil {
		total := int64(len(req.Configs))
		observe("evaluate", 0, total)
		var done atomic.Int64
		onDone = func() { observe("evaluate", done.Add(1), total) }
	}
	res, err := dse.EvaluateAll(ctx, ev, space, req.Configs, onDone)
	if err != nil {
		return zero, err
	}
	out := make([]EvalResult, len(res))
	for i, r := range res {
		out[i] = EvalResult{SSIM: r.SSIM, Area: r.Area, Delay: r.Delay,
			Power: r.Power, Energy: r.Energy, Gates: r.Gates}
	}
	return EvaluateResult{LibraryKey: key, Results: out}, nil
}

// computePipeline runs the methodology for a normalized pipeline request
// over its resolved accelerator.
func (s *Server) computePipeline(ctx context.Context, req PipelineRequest, app *accel.ImageApp) (PipelineResult, error) {
	var zero PipelineResult
	lib, libKey, _, err := s.resolveLibrary(ctx, req.Library)
	if err != nil {
		return zero, err
	}
	pipe, err := s.newPipeline(ctx, req, app, lib)
	if err != nil {
		return zero, err
	}
	if err := pipe.RunContext(ctx); err != nil {
		return zero, err
	}
	cfgs, results := pipe.FrontResults()
	front := make([]FrontEntry, len(cfgs))
	for i, c := range cfgs {
		front[i] = FrontEntry{Config: c, SSIM: results[i].SSIM,
			Area: results[i].Area, Energy: results[i].Energy}
	}
	return PipelineResult{
		LibraryKey:   libKey,
		SpaceConfigs: pipe.Space.NumConfigs(),
		QoRFidelity:  pipe.QoRFidelity,
		HWFidelity:   pipe.HWFidelity,
		Engine:       pipe.Opt.Engine.Name,
		SearchEngine: req.Search.Engine,
		Front:        front,
	}, nil
}

// newPipeline builds the methodology run of a normalized pipeline request
// over lib, reporting its stages to the observer of the job running
// under ctx.  Pipeline jobs and shard-model builds both construct their
// pipeline here, so a shard's models are by construction the ones a
// pipeline's train stage fits over the same model context.
func (s *Server) newPipeline(ctx context.Context, req PipelineRequest, app *accel.ImageApp, lib *acl.Library) (*core.Pipeline, error) {
	spec, err := ml.EngineByName(req.Engine)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(app, lib, buildImages(req.Images), core.Config{
		TrainConfigs: req.TrainConfigs,
		TestConfigs:  req.TestConfigs,
		SearchEvals:  req.SearchEvals,
		Stagnation:   req.Stagnation,
		SearchEngine: req.Search.Engine,
		SearchSeed:   req.Search.Seed,
		ProgramCache: s.programs,
		Seed:         req.Seed,
		AutoEngine:   req.AutoEngine,
		Engine:       spec,
	})
	if err != nil {
		return nil, err
	}
	pipe.Observer = stageObserver(ctx)
	return pipe, nil
}
