// Package par runs independent, indexed tasks on every core.  Errors are
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
// and returns each call's error by index.  A panic in fn(i) becomes
// errs[i].  The context is checked before each call: once it is done the
// remaining indices are not started and report ctx.Err().  Each returns
// only after every call it started has returned, so no goroutine
// outlives it.
func Each(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = recovered(fn, i)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		work()
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
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
