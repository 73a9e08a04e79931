package axserver

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoax/internal/core"
)

// runFunc executes one job under its cancellation context.  It returns the
// kind-specific result payload and whether it was served from the cache.
type runFunc func(ctx context.Context) (result any, cached bool, err error)

// Job is one asynchronous unit of work: a library build, a precise
// evaluation batch, or a full pipeline run.  Mutable state is guarded by
// the owning Manager's mutex.
type Job struct {
	info JobInfo
	// seq is the creation order, used (rather than the ID string, whose
	// lexicographic order breaks past the zero padding) for list ordering
	// and oldest-first eviction.
	seq int
	// cost is the job's retained request-payload bytes, charged against
	// the pool's byte budget while the job waits (guarded by the pool's
	// mutex, not the manager's).
	cost   int64
	run    runFunc
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed when the job reaches a terminal state; tests and the
	// pool use it to wait without polling.
	done chan struct{}

	// Live progress, published lock-free by the running work (possibly
	// from many evaluation goroutines at once) and read by job snapshots.
	// stage points at the current stage name; progress counts completed
	// items within it; progressTotal is the stage's total (0 = unknown).
	stage         atomic.Pointer[string]
	progress      atomic.Int64
	progressTotal atomic.Int64
}

// setProgress is the job's stage observer.  Stage transitions come from the
// single goroutine driving the run, so storing the new stage then its
// counters is race-free across stages; within a stage, concurrent
// reporters advance progress with a CAS-max loop so a late small value
// can never walk the published counter backwards.
func (j *Job) setProgress(stage string, done, total int64) {
	cur := j.stage.Load()
	if cur == nil || *cur != stage {
		j.progressTotal.Store(total)
		j.progress.Store(done)
		j.stage.Store(&stage)
		return
	}
	if total > 0 {
		j.progressTotal.Store(total)
	}
	for {
		old := j.progress.Load()
		if done <= old || j.progress.CompareAndSwap(old, done) {
			return
		}
	}
}

// liveInfo returns the job's snapshot with the current progress overlaid.
func (j *Job) liveInfo() JobInfo {
	info := j.info
	if st := j.stage.Load(); st != nil {
		info.Stage = *st
		info.Progress = j.progress.Load()
		info.ProgressTotal = j.progressTotal.Load()
	}
	return info
}

// DefaultJobRetention caps how many terminal (succeeded, failed or
// cancelled) jobs a Manager keeps before evicting the oldest, bounding
// memory on a long-running service.  Queued and running jobs are never
// evicted.
const DefaultJobRetention = 1000

// Manager tracks every job of one server: creation, state transitions,
// cancellation, and snapshots for the HTTP layer.  Safe for concurrent use.
type Manager struct {
	clock func() time.Time
	// retain caps the terminal jobs kept: DefaultJobRetention, lowered
	// only by tests.
	retain int
	// logger receives the job lifecycle events (job.start, job.done);
	// never nil — NewManager installs a discard logger.
	logger *slog.Logger
	// onTerminal, when set, observes every job reaching a terminal state
	// (the server's journal hook).  Called outside the manager lock.
	onTerminal func(id string, state JobState)

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
}

// NewManager returns an empty job manager with the default retention.
func NewManager() *Manager {
	return &Manager{
		clock:  time.Now,
		retain: DefaultJobRetention,
		logger: slog.New(slog.DiscardHandler),
		jobs:   make(map[string]*Job),
	}
}

// evictLocked drops the oldest terminal jobs beyond the retention cap.
// Callers hold m.mu.
func (m *Manager) evictLocked() {
	var terminal []*Job
	for _, j := range m.jobs {
		if j.info.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	if len(terminal) <= m.retain {
		return
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	for _, j := range terminal[:len(terminal)-m.retain] {
		delete(m.jobs, j.info.ID)
	}
}

// newJob returns a queued job.  Its run context is a child of base that
// carries the job's progress as the stage observer of the work it runs.
func newJob(base context.Context, info JobInfo, seq int, run runFunc) *Job {
	ctx, cancel := context.WithCancel(base)
	j := &Job{info: info, seq: seq, run: run, cancel: cancel, done: make(chan struct{})}
	j.ctx = context.WithValue(ctx, observerKey{}, core.StageObserver(j.setProgress))
	return j
}

// Create registers a new queued job of the given kind.  The base context
// is the server's lifetime: shutting the server down cancels every job.
func (m *Manager) Create(base context.Context, kind string, run runFunc) *Job {
	m.mu.Lock()
	m.seq++
	j := newJob(base, JobInfo{
		ID:      fmt.Sprintf("job-%06d", m.seq),
		Kind:    kind,
		State:   JobQueued,
		Created: m.clock(),
	}, m.seq, run)
	m.jobs[j.info.ID] = j
	m.mu.Unlock()
	jobsSubmitted(kind).Inc()
	m.logger.Info("job.accept", "job", j.info.ID, "kind", kind)
	return j
}

// advanceSeq fast-forwards the ID sequence to at least n, so jobs
// created after a journal recovery never reuse an ID the previous
// incarnation already handed out.
func (m *Manager) advanceSeq(n int) {
	m.mu.Lock()
	if n > m.seq {
		m.seq = n
	}
	m.mu.Unlock()
}

// CreateReplay registers a journal-replayed job under its original
// identity (ID, sequence, creation time), so pollers that watched the
// job across the restart reconnect to the same resource.  The sequence
// counter is fast-forwarded past seq.
func (m *Manager) CreateReplay(base context.Context, id string, seq int, kind string, created time.Time, run runFunc) *Job {
	m.mu.Lock()
	if seq > m.seq {
		m.seq = seq
	}
	if created.IsZero() {
		created = m.clock()
	}
	j := newJob(base, JobInfo{
		ID:       id,
		Kind:     kind,
		State:    JobQueued,
		Created:  created,
		Replayed: true,
	}, seq, run)
	m.jobs[j.info.ID] = j
	m.mu.Unlock()
	m.logger.Info("job.replay", "job", id, "kind", kind)
	return j
}

// Done returns the channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.info.ID }

// Get returns a snapshot of the job, or false when the ID is unknown.
func (m *Manager) Get(id string) (JobInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.liveInfo(), true
}

// List returns snapshots of every job, oldest first.
func (m *Manager) List() []JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.liveInfo()
	}
	return out
}

// Counts returns the number of jobs per state.
func (m *Manager) Counts() map[JobState]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[JobState]int)
	for _, j := range m.jobs {
		out[j.info.State]++
	}
	return out
}

// Cancel requests cancellation of a job.  A queued job transitions to
// cancelled immediately (the pool skips it); a running job's context is
// cancelled and the job transitions when its stage checkpoint observes the
// cancellation.  Returns the post-cancel snapshot, whether the ID exists,
// and whether the job was still cancellable.
//
// For running jobs, cancellable=true promises only delivery, not outcome:
// the cancellation races the job's own completion, and a run that finishes
// before its next checkpoint lands succeeded with its result intact.  This
// is deliberate — the alternative (forcing such a job to cancelled) would
// discard a fully computed artifact over a few-microsecond race.  Callers
// needing the final state wait on Done and re-Get the job.
func (m *Manager) Cancel(id string) (JobInfo, bool, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobInfo{}, false, false
	}
	switch j.info.State {
	case JobQueued:
		j.info.State = JobCancelled
		j.info.Ended = m.clock()
		info := j.info
		close(j.done)
		m.evictLocked()
		m.mu.Unlock()
		j.cancel()
		jobsCompleted(JobCancelled).Inc()
		m.logger.Info("job.cancel", "job", info.ID, "kind", info.Kind, "state", "queued")
		if m.onTerminal != nil {
			m.onTerminal(info.ID, JobCancelled)
		}
		return info, true, true
	case JobRunning:
		info := j.info
		m.mu.Unlock()
		j.cancel()
		m.logger.Info("job.cancel", "job", info.ID, "kind", info.Kind, "state", "running")
		return info, true, true
	default:
		info := j.info
		m.mu.Unlock()
		return info, true, false
	}
}

// markRunning transitions a queued job to running.  It returns false when
// the job is no longer queued (cancelled while waiting), in which case the
// pool must skip it.
func (m *Manager) markRunning(j *Job) bool {
	m.mu.Lock()
	if j.info.State != JobQueued {
		m.mu.Unlock()
		return false
	}
	j.info.State = JobRunning
	j.info.Started = m.clock()
	wait := j.info.Started.Sub(j.info.Created)
	id, kind := j.info.ID, j.info.Kind
	m.mu.Unlock()
	jobQueueWait.ObserveDuration(wait)
	m.logger.Info("job.start", "job", id, "kind", kind, "queue_wait_us", wait.Microseconds())
	return true
}

// finish records the outcome of a run.  Cancellation (a run returning the
// context's error) lands in the cancelled state, other errors in failed.
func (m *Manager) finish(j *Job, ctxErr error, result any, cached bool, err error) {
	// Encode outside the lock: a multi-MB result payload must not stall
	// concurrent job polling.
	var encoded []byte
	var encErr error
	if err == nil {
		encoded, encErr = json.Marshal(result)
	}
	m.mu.Lock()
	if j.info.State != JobRunning {
		m.mu.Unlock()
		return
	}
	j.info.Ended = m.clock()
	switch {
	case err != nil && ctxErr != nil:
		j.info.State = JobCancelled
	case err != nil:
		j.info.State = JobFailed
		j.info.Error = err.Error()
	case encErr != nil:
		j.info.State = JobFailed
		j.info.Error = "encoding result: " + encErr.Error()
	default:
		j.info.State = JobSucceeded
		j.info.Cached = cached
		j.info.Result = encoded
	}
	// Bake the final stage/progress into the terminal snapshot so a
	// finished job keeps reporting where it ended.
	if st := j.stage.Load(); st != nil {
		j.info.Stage = *st
		j.info.Progress = j.progress.Load()
		j.info.ProgressTotal = j.progressTotal.Load()
	}
	state := j.info.State
	id, kind := j.info.ID, j.info.Kind
	exec := j.info.Ended.Sub(j.info.Started)
	errText := j.info.Error
	close(j.done)
	m.evictLocked()
	m.mu.Unlock()
	jobExec.ObserveDuration(exec)
	jobsCompleted(state).Inc()
	if m.onTerminal != nil {
		m.onTerminal(id, state)
	}
	if errText != "" {
		m.logger.Info("job.done", "job", id, "kind", kind, "state", string(state),
			"exec_us", exec.Microseconds(), "error", errText)
	} else {
		m.logger.Info("job.done", "job", id, "kind", kind, "state", string(state),
			"exec_us", exec.Microseconds(), "cached", cached)
	}
}
