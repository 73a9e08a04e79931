package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"autoax/internal/obs"
	"autoax/internal/pareto"
)

// Defaults for the zero values of Options, and the straggler threshold.
const (
	// DefaultRetries is the number of re-dispatches a shard gets after
	// its first failed attempt before the whole search fails.
	DefaultRetries = 3
	// DefaultRetryBackoff is the base delay before a failed shard is
	// eligible for re-dispatch; it doubles per failure up to 16×.
	DefaultRetryBackoff = 50 * time.Millisecond
	// DefaultMaxWorkerFailures benches a worker after this many
	// consecutive failed attempts.
	DefaultMaxWorkerFailures = 3
	// DefaultStragglers is the unfinished-shard threshold at or below
	// which idle workers start speculative duplicates: when no shard is
	// left undispatched, an idle worker duplicates the lowest-indexed
	// in-flight shard (at most one duplicate per shard).  Determinism
	// makes the duplicate free — whichever attempt lands first carries
	// the identical archive.
	DefaultStragglers = 2
)

// Options tune the coordinator's robustness machinery.  Integer and
// duration fields are zero-means-default; negative values disable the
// mechanism where that is meaningful.
type Options struct {
	// Retries is the number of re-dispatches allowed per shard after its
	// first failed attempt.  0 means DefaultRetries; negative means a
	// single attempt per shard.
	Retries int
	// RetryBackoff is the base delay before a failed shard becomes
	// eligible again, doubling per accumulated failure and capped at
	// 16× the base.  0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// MaxWorkerFailures benches a worker (its dispatch loop exits) after
	// this many consecutive failed attempts; a success resets the count.
	// 0 means DefaultMaxWorkerFailures; negative means never bench.
	MaxWorkerFailures int
	// FaultInject, when non-nil, is consulted at the start of every
	// dispatch attempt with the worker name, shard index, and 1-based
	// attempt number; a non-nil return fails the attempt as if the
	// worker died mid-shard.  Tests use it to pin that the merged
	// archive is bit-identical under injected failures.
	FaultInject func(worker string, shard, attempt int) error
}

// Stats counts one Search call's dispatch activity.
type Stats struct {
	Shards      int   // shards in the plan
	Dispatched  int64 // dispatch attempts started
	Retried     int64 // re-dispatches landing on the last failed worker
	Reissued    int64 // re-dispatches landing on a different worker
	Speculative int64 // straggler duplicates
	Failures    int64 // failed attempts (including injected faults)
	Benched     int   // workers retired for consecutive failures
}

// Coordinator fans a partitioned search out over Workers and merges the
// shard archives deterministically.  The zero Options are production
// defaults; a Coordinator is single-use per Search call but stateless
// between calls.
type Coordinator struct {
	Workers []Worker
	Opts    Options
}

// shardState is one shard's dispatch bookkeeping, guarded by the search
// mutex.
type shardState struct {
	spec       ShardSpec
	running    int  // attempts in flight
	attempts   int  // attempts started
	failures   int  // attempts failed
	done       bool // result recorded
	result     *ShardResult
	notBefore  time.Time // backoff gate for the next attempt
	lastErr    error
	lastWorker string // worker of the last failure, for reissue counting
}

// Search executes the shard plan and returns the merged global archive.
// Shards are dispatched to idle workers lowest-index first; failures are
// retried with capped backoff and naturally reissue to healthy workers
// (benched workers stop pulling work); when only stragglers remain, idle
// workers duplicate them speculatively.  The merge happens in shard-index
// order after all shards finish, so the archive is bit-identical across
// worker counts, completion orders, and injected failures.  On error
// (context cancellation, a shard exhausting its retries, or every worker
// benched) the partial stats are still returned.
func (c *Coordinator) Search(ctx context.Context, specs []ShardSpec) (*pareto.Archive[[]int], Stats, error) {
	var stats Stats
	if len(c.Workers) == 0 {
		return nil, stats, fmt.Errorf("fleet: coordinator has no workers")
	}
	states := make([]*shardState, len(specs))
	for i, s := range specs {
		norm, err := s.normalized()
		if err != nil {
			return nil, stats, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		states[i] = &shardState{spec: norm}
	}
	stats.Shards = len(specs)
	if len(specs) == 0 {
		return &pareto.Archive[[]int]{}, stats, nil
	}

	retries := c.Opts.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	backoff := c.Opts.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	}
	maxFail := c.Opts.MaxWorkerFailures
	switch {
	case maxFail == 0:
		maxFail = DefaultMaxWorkerFailures
	case maxFail < 0:
		maxFail = 0 // never bench
	}

	// searchCtx cancels in-flight attempts the moment the plan completes
	// or aborts, reaping speculative duplicates and benched-path work.
	searchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex
		remaining = len(states)
		abortErr  error
		live      = len(c.Workers)
	)
	abort := func(err error) {
		if abortErr == nil {
			abortErr = err
		}
		cancel()
	}

	var wg sync.WaitGroup
	for _, w := range c.Workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			benched := c.runWorker(searchCtx, w, states, &mu, &remaining, &stats, abort,
				retries, backoff, maxFail, cancel)
			mu.Lock()
			live--
			if benched {
				stats.Benched++
				if live == 0 && remaining > 0 {
					abort(fmt.Errorf("fleet: all workers benched with %d shards unfinished", remaining))
				}
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	mu.Lock()
	err := abortErr
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err == nil && remaining > 0 {
		// Unreachable by construction (workers only exit on completion,
		// abort, or bench — and the last bench aborts), but never return
		// a silently partial archive.
		err = fmt.Errorf("fleet: %d shards unfinished", remaining)
	}
	mu.Unlock()
	if err != nil {
		return nil, stats, err
	}

	span := obs.Default().StartSpanIn(mergeLatency)
	results := make([]*ShardResult, len(states))
	for i, st := range states {
		results[i] = st.result
	}
	merged := Merge(results)
	span.Finish()
	return merged, stats, nil
}

// runWorker is one worker's dispatch loop.  It returns true when the
// worker benched itself after maxFail consecutive failures.
func (c *Coordinator) runWorker(ctx context.Context, w Worker, states []*shardState,
	mu *sync.Mutex, remaining *int, stats *Stats, abort func(error),
	retries int, backoff time.Duration, maxFail int,
	complete func()) bool {

	wm := metricsForWorker(w.Name())
	consecutive := 0
	for {
		if ctx.Err() != nil {
			return false
		}
		mu.Lock()
		if *remaining == 0 {
			mu.Unlock()
			return false
		}
		idx, speculative, wait := pickShard(states, *remaining, retries)
		var st *shardState
		var attempt int
		if idx >= 0 {
			st = states[idx]
			st.running++
			st.attempts++
			attempt = st.attempts
			stats.Dispatched++
			if speculative {
				stats.Speculative++
			}
			if st.failures > 0 {
				if st.lastWorker != "" && st.lastWorker != w.Name() {
					stats.Reissued++
					shardsReissued.Inc()
				} else {
					stats.Retried++
					shardsRetried.Inc()
				}
			}
		}
		mu.Unlock()

		if idx < 0 {
			if !sleepCtx(ctx, wait) {
				return false
			}
			continue
		}

		shardsDispatched.Inc()
		wm.inflight.Add(1)
		res, err := c.runAttempt(ctx, w, st.spec, idx, attempt)
		wm.inflight.Add(-1)

		mu.Lock()
		st.running--
		switch {
		case err == nil:
			wm.completed.Inc()
			consecutive = 0
			if !st.done {
				st.done = true
				st.result = res
				*remaining--
				if *remaining == 0 {
					complete() // reap speculative duplicates promptly
				}
			}
		case st.done:
			// A superseded speculative duplicate (usually reaped by the
			// completion cancel); not a real failure.
		case ctx.Err() != nil:
			// The search is shutting down (completion, abort, or caller
			// cancellation); the attempt's error is just that surfacing.
			// The loop exits at the top on the next pass.
		default:
			stats.Failures++
			shardsFailed.Inc()
			wm.failures.Inc()
			consecutive++
			st.failures++
			st.lastErr = err
			st.lastWorker = w.Name()
			st.notBefore = time.Now().Add(backoffFor(backoff, st.failures))
			if st.failures > retries {
				abort(fmt.Errorf("fleet: shard %d failed after %d attempts on %s: %w",
					idx, st.attempts, w.Name(), err))
			}
		}
		benched := maxFail > 0 && consecutive >= maxFail
		mu.Unlock()
		if benched {
			return true
		}
	}
}

// runAttempt executes one dispatch attempt: fault injection first, then
// the worker.  A result with a point of other than two objectives fails
// the attempt, so a malformed remote reply is retried like a crash
// instead of reaching Merge.
func (c *Coordinator) runAttempt(ctx context.Context, w Worker, spec ShardSpec, idx, attempt int) (*ShardResult, error) {
	if c.Opts.FaultInject != nil {
		if err := c.Opts.FaultInject(w.Name(), idx, attempt); err != nil {
			return nil, err
		}
	}
	span := obs.Default().StartSpanIn(shardLatency)
	res, err := w.RunShard(ctx, spec)
	span.Finish()
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("fleet: worker %s returned no result for shard %d", w.Name(), idx)
	}
	for i, p := range res.Points {
		if len(p.Point) != 2 {
			return nil, fmt.Errorf("fleet: worker %s returned shard %d point %d of length %d, want 2",
				w.Name(), idx, i, len(p.Point))
		}
	}
	return res, nil
}

// pickShard chooses the next shard for an idle worker, with the search
// mutex held.  Primary assignment is the lowest-indexed shard that is
// neither done nor in flight and past its backoff gate; when everything
// unfinished is already running and at most DefaultStragglers shards
// remain, the lowest-indexed single-flight shard is duplicated
// speculatively.
// Returns idx == -1 and a poll interval when nothing is dispatchable yet.
func pickShard(states []*shardState, remaining, retries int) (idx int, speculative bool, wait time.Duration) {
	wait = 5 * time.Millisecond
	now := time.Now()
	for i, st := range states {
		if st.done || st.running > 0 || st.failures > retries {
			continue
		}
		if now.Before(st.notBefore) {
			if d := st.notBefore.Sub(now); d < wait {
				wait = d
			}
			continue
		}
		return i, false, 0
	}
	if remaining <= DefaultStragglers {
		for i, st := range states {
			if !st.done && st.running == 1 && st.failures <= retries {
				return i, true, 0
			}
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return -1, false, wait
}

// backoffFor is the capped exponential schedule: base·2^(failures-1),
// capped at 16× base.
func backoffFor(base time.Duration, failures int) time.Duration {
	d := base
	for i := 1; i < failures && d < 16*base; i++ {
		d *= 2
	}
	if d > 16*base {
		d = 16 * base
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the
// caller should keep running.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
