package axserver

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Pool runs jobs from a FIFO queue on a bounded set of workers.  The
// queue has admission control — a job-count bound and a byte budget for
// retained request payloads, either of which may be off — so a
// sustained burst sheds load with a typed QueueFullError instead of
// growing without bound.  Per-job cancellation happens through the
// job's context, not the pool.
type Pool struct {
	manager *Manager

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*Job
	queueBytes int64
	// reserved/reservedBytes count admissions granted by Reserve but not
	// yet enqueued, so concurrent submissions cannot overshoot the
	// bounds between the admission check and the enqueue.
	reserved      int
	reservedBytes int64
	closed        bool
	draining      bool

	// Admission bounds; 0 means unbounded.
	maxQueue      int
	maxQueueBytes int64

	workers int
	wg      sync.WaitGroup
}

// QueueFullError is the typed admission-control rejection: the queue is
// at its job-count bound or byte budget.  The HTTP layer maps it to 429
// with a Retry-After header.
type QueueFullError struct {
	// QueueLen and QueueBytes snapshot the queue at rejection time.
	QueueLen   int
	QueueBytes int64
	// RetryAfter is the suggested backoff before resubmitting, derived
	// from the queue depth per worker.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("axserver: queue full (%d jobs, %d request bytes queued); retry after %s",
		e.QueueLen, e.QueueBytes, e.RetryAfter)
}

// retryAfterCeiling caps the Retry-After suggestion; beyond a minute the
// estimate carries no information a client could act on.
const retryAfterCeiling = 60 * time.Second

// NewPool starts workers goroutines draining a queue with admission
// bounds: at most maxQueue waiting jobs and maxQueueBytes of retained
// request payloads (0 disables either bound).
func NewPool(manager *Manager, workers, maxQueue int, maxQueueBytes int64) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{manager: manager, workers: workers, maxQueue: maxQueue, maxQueueBytes: maxQueueBytes}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// QueueLen returns the number of jobs waiting for a worker.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// QueueBytes returns the request-payload bytes retained by waiting jobs.
func (p *Pool) QueueBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queueBytes
}

// queueFullLocked builds the typed rejection for the current queue.
// Callers hold p.mu.
func (p *Pool) queueFullLocked() *QueueFullError {
	after := time.Duration(1+len(p.queue)/p.workers) * time.Second
	if after > retryAfterCeiling {
		after = retryAfterCeiling
	}
	return &QueueFullError{QueueLen: len(p.queue), QueueBytes: p.queueBytes, RetryAfter: after}
}

// Reserve admits one submission of cost request bytes against the
// bounds, holding the slot until the matching Enqueue (or Release on an
// abandoned submission).  It returns ErrShuttingDown after Close,
// ErrDraining while draining, and *QueueFullError past either bound.  A
// byte-budget overrun is still admitted onto an otherwise empty queue,
// so one oversized request degrades to serialized execution instead of
// being rejected forever.
func (p *Pool) Reserve(cost int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
		return ErrShuttingDown
	case p.draining:
		return ErrDraining
	}
	pending := len(p.queue) + p.reserved
	if p.maxQueue > 0 && pending >= p.maxQueue {
		return p.queueFullLocked()
	}
	if p.maxQueueBytes > 0 && pending > 0 && p.queueBytes+p.reservedBytes+cost > p.maxQueueBytes {
		return p.queueFullLocked()
	}
	p.reserved++
	p.reservedBytes += cost
	return nil
}

// Release abandons a reservation whose submission failed before Enqueue.
func (p *Pool) Release(cost int64) {
	p.mu.Lock()
	p.reserved--
	p.reservedBytes -= cost
	p.mu.Unlock()
}

// pushLocked appends the job to the FIFO queue.  It returns false after
// Close or BeginDrain.  Callers hold p.mu.
func (p *Pool) pushLocked(j *Job, cost int64) bool {
	if p.closed || p.draining {
		return false
	}
	j.cost = cost
	p.queue = append(p.queue, j)
	p.queueBytes += cost
	p.cond.Signal()
	return true
}

// Enqueue consumes a Reserve slot and appends the job.  It returns
// false after Close or BeginDrain (the reservation is released either
// way).
func (p *Pool) Enqueue(j *Job, cost int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserved--
	p.reservedBytes -= cost
	return p.pushLocked(j, cost)
}

// EnqueueReplay appends a journal-replayed job, bypassing the admission
// bounds: the work was already accepted before the restart and must
// never be dropped.  It returns false after Close or BeginDrain.
func (p *Pool) EnqueueReplay(j *Job, cost int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pushLocked(j, cost)
}

// BeginDrain stops workers from picking up queued jobs: each finishes
// its current job and exits, leaving the queue intact (with a journal,
// the queued jobs persist for the next boot).  Contrast Close, which
// drains the queue before returning.
func (p *Pool) BeginDrain() {
	p.mu.Lock()
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// WaitIdle blocks until every worker has exited (after Close or
// BeginDrain) or ctx is done.
func (p *Pool) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting jobs and waits for the workers to drain what is
// already queued (unless BeginDrain already idled them, in which case
// the queue is left as-is for replay).  Callers wanting a fast shutdown
// cancel the jobs' base context first so running work aborts at its
// next checkpoint.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker pops jobs in FIFO order until the pool closes or drains.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && !p.draining {
			p.cond.Wait()
		}
		// Draining exits immediately — queued jobs are deliberately left
		// behind; Close keeps popping until the queue is empty.
		if p.draining || len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.queueBytes -= j.cost
		p.mu.Unlock()

		// A job cancelled while queued has already reached its terminal
		// state; skip execution.
		if !p.manager.markRunning(j) {
			continue
		}
		result, cached, err := p.runSafe(j)
		p.manager.finish(j, j.ctx.Err(), result, cached, err)
		j.cancel() // release the context's resources
	}
}

// runSafe executes a job, converting a panic into a failed job instead of
// letting it kill the worker (and with it the server and every queued job).
func (p *Pool) runSafe(j *Job) (result any, cached bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, cached, err = nil, false, fmt.Errorf("job panicked: %v", r)
		}
	}()
	return j.run(j.ctx)
}
