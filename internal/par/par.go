// Package par runs independent, indexed tasks on every core, one
// goroutine per GOMAXPROCS.  Errors are
// reported by index and callers store results by index, so the outcome
// never depends on scheduling: one goroutine or many give the same answer.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines
// that claim indices in order from a shared counter, and returns each
// call's error by index.  A panic in fn(i) becomes errs[i].  The context
// is checked before each claim: once it is done the remaining indices are
// not started and report ctx.Err(), while every claimed index runs to
// completion — so when a call fails and cancels ctx, every lower index
// still runs, as in a sequential loop.  Each returns only after every
// call it started has returned, so no goroutine outlives it.
//
// GOMAXPROCS is the only width: a caller that hands each goroutine a
// scarce resource — an evaluator from a pool, say — sizes the pool
// min(GOMAXPROCS, n) so that no goroutine claims an index only to wait.
func Each(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = recovered(fn, i)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		for i := min(int(next.Load()), n); i < n; i++ {
			errs[i] = err
		}
	}
	return errs
}

// recovered calls fn(i), reporting a panic as its error.
func recovered(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(i)
}
