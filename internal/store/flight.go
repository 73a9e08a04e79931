package store

import (
	"context"
	"fmt"
	"sync"
)

// Flight coalesces concurrent builds of one key: the first caller (the
// leader) runs build, and callers arriving while it runs wait and share
// its result.  One policy holds for every caller:
//
//   - a panic in build becomes the leader's error, so no waiter is left
//     parked;
//   - failures are never shared: a waiter whose leader failed retries,
//     and may become the leader itself;
//   - ctx bounds only the waits; a leader's build runs under whatever
//     context build captured.
//
// Flight memoizes nothing.  Callers keep completed results in their own
// tier and re-check it inside build, so a caller that missed the tier
// just as another leader finished does not build twice.  The zero value
// is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one build in flight; v and err are immutable once done closes.
type call[V any] struct {
	done    chan struct{}
	waiters int // guarded by Flight.mu
	v       V
	err     error
}

// Do returns build's result for key, running build only if no build of
// key is in flight.  shared reports that another caller's build served
// the result.
func (f *Flight[K, V]) Do(ctx context.Context, key K, build func() (V, error)) (v V, shared bool, err error) {
	for {
		f.mu.Lock()
		c, ok := f.calls[key]
		if !ok {
			break
		}
		c.waiters++
		f.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if c.err == nil {
			return c.v, true, nil
		}
	}
	if f.calls == nil {
		f.calls = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			c.v, c.err = v, fmt.Errorf("build panicked: %v", r)
		}
		// Release the key before waking the waiters, so a retrying
		// waiter finds it free rather than this finished call.
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
		v, err = c.v, c.err
	}()
	c.v, c.err = build()
	return c.v, false, c.err
}

// Waiters reports whether a build of key is in flight and how many
// callers have joined it.
func (f *Flight[K, V]) Waiters(key K) (n int, inFlight bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.waiters, true
	}
	return 0, false
}
