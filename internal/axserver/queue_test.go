package axserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPoolFIFO checks that a single worker executes jobs in submission
// order.
func TestPoolFIFO(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	var mu sync.Mutex
	var order []int
	jobs := make([]*Job, 5)
	for i := range jobs {
		i := i
		jobs[i] = m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return i, false, nil
		})
	}
	for _, j := range jobs {
		if !p.EnqueueReplay(j, 0) {
			t.Fatal("submit rejected")
		}
	}
	for _, j := range jobs {
		<-j.Done()
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v is not FIFO", order)
		}
	}
}

// TestPoolSkipsCancelledQueuedJob checks a job cancelled before a worker
// reaches it never executes.
func TestPoolSkipsCancelledQueuedJob(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	release := make(chan struct{})
	ran := make(chan string, 2)
	blocker := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		ran <- "blocker"
		<-release
		return nil, false, nil
	})
	victim := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		ran <- "victim"
		return nil, false, nil
	})
	p.EnqueueReplay(blocker, 0)
	p.EnqueueReplay(victim, 0)
	<-ran // blocker is now occupying the only worker

	info, ok, cancellable := m.Cancel(victim.ID())
	if !ok || !cancellable {
		t.Fatalf("cancel queued: ok=%v cancellable=%v", ok, cancellable)
	}
	if info.State != JobCancelled {
		t.Fatalf("queued job state %s after cancel", info.State)
	}
	close(release)
	<-blocker.Done()
	<-victim.Done()
	select {
	case who := <-ran:
		t.Fatalf("%s executed after cancellation", who)
	default:
	}
	if got, _ := m.Get(victim.ID()); got.State != JobCancelled {
		t.Fatalf("victim ended as %s", got.State)
	}
}

// TestPoolCancelRunning checks a running job lands in the cancelled state
// when its context is cancelled mid-run.
func TestPoolCancelRunning(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	started := make(chan struct{})
	j := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		close(started)
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	p.EnqueueReplay(j, 0)
	<-started
	if _, ok, cancellable := m.Cancel(j.ID()); !ok || !cancellable {
		t.Fatal("cancel running failed")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	if info, _ := m.Get(j.ID()); info.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", info.State)
	}
}

// TestPoolClose checks Close drains queued work and rejects later submits.
func TestPoolClose(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 2, 0, 0)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
			return nil, false, nil
		})
		jobs = append(jobs, j)
		p.EnqueueReplay(j, 0)
	}
	p.Close()
	for _, j := range jobs {
		if info, _ := m.Get(j.ID()); info.State != JobSucceeded {
			t.Fatalf("job %s ended as %s after Close", j.ID(), info.State)
		}
	}
	late := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return nil, false, nil
	})
	if p.EnqueueReplay(late, 0) {
		t.Fatal("submit accepted after Close")
	}
}

// TestPoolBoundedAdmission checks the Reserve/Enqueue admission path:
// the job-count bound and byte budget shed with typed QueueFullError,
// reservations count against the bounds, and byte accounting tracks the
// queue exactly.
func TestPoolBoundedAdmission(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 2, 100)
	defer p.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		close(started)
		<-release
		return nil, false, nil
	})
	if err := p.Reserve(10); err != nil {
		t.Fatalf("Reserve blocker: %v", err)
	}
	if !p.Enqueue(blocker, 10) {
		t.Fatal("Enqueue blocker rejected")
	}
	<-started // blocker occupies the only worker; queue is empty again

	// Two queued jobs fit the count bound of 2.
	for i := 0; i < 2; i++ {
		if err := p.Reserve(40); err != nil {
			t.Fatalf("Reserve %d: %v", i, err)
		}
		j := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
			return nil, false, nil
		})
		if !p.Enqueue(j, 40) {
			t.Fatalf("Enqueue %d rejected", i)
		}
	}
	if got := p.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	if got := p.QueueBytes(); got != 80 {
		t.Fatalf("QueueBytes = %d, want 80", got)
	}

	// The third hits the count bound with a typed error.
	err := p.Reserve(1)
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("Reserve past count bound: %v, want *QueueFullError", err)
	}
	if full.QueueLen != 2 || full.QueueBytes != 80 || full.RetryAfter < time.Second {
		t.Fatalf("rejection snapshot %+v", full)
	}

	// Byte budget: a reservation holds its slot until Enqueue/Release.
	m2 := NewManager()
	p2 := NewPool(m2, 1, 0, 100)
	defer p2.Close()
	blocker2 := make(chan struct{})
	started2 := make(chan struct{})
	b2 := m2.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		close(started2)
		<-blocker2
		return nil, false, nil
	})
	if err := p2.Reserve(0); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	p2.Enqueue(b2, 0)
	<-started2
	if err := p2.Reserve(60); err != nil {
		t.Fatalf("Reserve 60: %v", err)
	}
	if err := p2.Reserve(60); !errors.As(err, &full) {
		t.Fatalf("Reserve past byte budget with pending reservation: %v", err)
	}
	p2.Release(60)
	// An oversized request on an otherwise empty queue is still admitted
	// (degrades to serialized execution, never rejected forever).
	if err := p2.Reserve(500); err != nil {
		t.Fatalf("oversized Reserve on empty queue: %v", err)
	}
	p2.Release(500)
	close(blocker2)
	close(release)
}

// TestPoolDrainLeavesQueue checks BeginDrain stops workers without
// popping queued jobs (they persist for journal replay), while Close
// after an ordinary run still drains the queue (TestPoolClose).
func TestPoolDrainLeavesQueue(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)

	release := make(chan struct{})
	started := make(chan struct{})
	running := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		close(started)
		<-release
		return "done", false, nil
	})
	p.EnqueueReplay(running, 0)
	<-started
	queued := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return nil, false, nil
	})
	p.EnqueueReplay(queued, 0)

	p.BeginDrain()
	if p.EnqueueReplay(m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return nil, false, nil
	}), 0) {
		t.Fatal("EnqueueReplay accepted while draining")
	}
	if err := p.Reserve(0); err == nil {
		t.Fatal("Reserve succeeded while draining")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	// The in-flight job finished; the queued one was deliberately left.
	if info, _ := m.Get(running.ID()); info.State != JobSucceeded {
		t.Fatalf("running job ended as %s", info.State)
	}
	if info, _ := m.Get(queued.ID()); info.State != JobQueued {
		t.Fatalf("queued job state %s after drain, want queued", info.State)
	}
	if got := p.QueueLen(); got != 1 {
		t.Fatalf("QueueLen after drain = %d, want 1", got)
	}
	p.Close()
}

// TestPoolRecoversPanic checks a panicking job becomes a failed job
// instead of killing the worker.
func TestPoolRecoversPanic(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	bad := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		panic("boom")
	})
	p.EnqueueReplay(bad, 0)
	<-bad.Done()
	info, _ := m.Get(bad.ID())
	if info.State != JobFailed || info.Error != "job panicked: boom" {
		t.Fatalf("panicking job: %+v", info)
	}
	// The worker survived and still executes the next job.
	ok := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return "fine", false, nil
	})
	p.EnqueueReplay(ok, 0)
	select {
	case <-ok.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("worker dead after panic")
	}
	if info, _ := m.Get(ok.ID()); info.State != JobSucceeded {
		t.Fatalf("follow-up job: %s", info.State)
	}
}

// TestManagerStateMachine covers the failed state and result encoding.
func TestManagerStateMachine(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	fail := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return nil, false, context.DeadlineExceeded
	})
	p.EnqueueReplay(fail, 0)
	<-fail.Done()
	info, _ := m.Get(fail.ID())
	if info.State != JobFailed || info.Error == "" {
		t.Fatalf("failed job: %+v", info)
	}

	ok := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		return map[string]int{"n": 3}, true, nil
	})
	p.EnqueueReplay(ok, 0)
	<-ok.Done()
	info, _ = m.Get(ok.ID())
	if info.State != JobSucceeded || !info.Cached || string(info.Result) != `{"n":3}` {
		t.Fatalf("succeeded job: %+v", info)
	}
	if counts := m.Counts(); counts[JobFailed] != 1 || counts[JobSucceeded] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

// TestCancelRunningBestEffort pins the documented contract for cancelling
// a running job: cancellable=true promises only that the cancellation was
// delivered.  A run that completes without ever observing its context
// lands succeeded with its result intact — the cancel lost the race by
// design, rather than discarding a fully computed artifact.
func TestCancelRunningBestEffort(t *testing.T) {
	m := NewManager()
	p := NewPool(m, 1, 0, 0)
	defer p.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	j := m.Create(context.Background(), "test", func(ctx context.Context) (any, bool, error) {
		close(started)
		<-release                     // hold "running" until the cancel lands
		return "artifact", false, nil // never checks ctx: completion wins
	})
	p.EnqueueReplay(j, 0)
	<-started

	info, ok, cancellable := m.Cancel(j.ID())
	if !ok || !cancellable {
		t.Fatalf("cancel running: ok=%v cancellable=%v", ok, cancellable)
	}
	if info.State != JobRunning {
		t.Fatalf("snapshot state %s, want running", info.State)
	}
	close(release)
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job never finished")
	}
	final, _ := m.Get(j.ID())
	if final.State != JobSucceeded {
		t.Fatalf("job landed %s, want succeeded: best-effort cancel must not discard a completed result", final.State)
	}
	if string(final.Result) != `"artifact"` {
		t.Fatalf("completed result lost: %s", final.Result)
	}
}
