package store

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWaiters blocks until n callers have joined key's build.
func awaitWaiters(t *testing.T, f *Flight[string, int], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for got, _ := f.Waiters(key); got < n; got, _ = f.Waiters(key) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters joined", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// lead starts a leader for key whose build blocks until release closes,
// then returns v, err (or panics with p when set).
func lead(f *Flight[string, int], key string, v int, err error, p any) (release chan struct{}, done chan error) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, e := f.Do(context.Background(), key, func() (int, error) {
			close(started)
			<-release
			if p != nil {
				panic(p)
			}
			return v, err
		})
		done <- e
	}()
	<-started
	return release, done
}

// TestFlightCoalesces: concurrent callers share one build and report it
// shared; the leader does not.
func TestFlightCoalesces(t *testing.T) {
	var f Flight[string, int]
	release, done := lead(&f, "k", 7, nil, nil)
	const waiters = 5
	var wg sync.WaitGroup
	var builds atomic.Int32
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do(context.Background(), "k", func() (int, error) {
				builds.Add(1)
				return 0, nil
			})
			if v != 7 || !shared || err != nil {
				t.Errorf("waiter got (%d, %v, %v)", v, shared, err)
			}
		}()
	}
	awaitWaiters(t, &f, "k", waiters)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := builds.Load(); n != 0 {
		t.Fatalf("waiters ran %d builds", n)
	}
	if _, inFlight := f.Waiters("k"); inFlight {
		t.Fatal("finished build still in flight")
	}
	// Nothing is memoized: the next call builds again, unshared.
	if v, shared, _ := f.Do(context.Background(), "k", func() (int, error) { return 8, nil }); v != 8 || shared {
		t.Fatalf("later call got (%d, %v), want its own build", v, shared)
	}
}

// TestFlightFailureNotShared: a waiter whose leader fails becomes the
// leader and runs its own build.
func TestFlightFailureNotShared(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	release, done := lead(&f, "k", 0, boom, nil)
	waiter := make(chan [2]any, 1)
	go func() {
		v, shared, err := f.Do(context.Background(), "k", func() (int, error) { return 9, nil })
		waiter <- [2]any{v, err == nil && !shared}
	}()
	awaitWaiters(t, &f, "k", 1)
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("leader got %v, want its own error", err)
	}
	if r := <-waiter; r[0] != 9 || r[1] != true {
		t.Fatalf("waiter got %v, want its own unshared build of 9", r)
	}
}

// TestFlightPanic: a panicking build becomes the leader's error, its
// parked waiter retries instead of wedging, and the key is released.
func TestFlightPanic(t *testing.T) {
	var f Flight[string, int]
	release, done := lead(&f, "k", 0, nil, "kaboom")
	waiter := make(chan error, 1)
	go func() {
		_, _, err := f.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		waiter <- err
	}()
	awaitWaiters(t, &f, "k", 1)
	close(release)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("leader got %v, want the panic as an error", err)
	}
	select {
	case err := <-waiter:
		if err != nil {
			t.Fatalf("waiter got %v, want its own build", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter parked on the panicked build")
	}
	if _, inFlight := f.Waiters("k"); inFlight {
		t.Fatal("panicked build left the key in flight")
	}
}

// TestFlightContextBoundsWait: a cancelled waiter returns its ctx error
// at once, and the leader's build is unaffected.
func TestFlightContextBoundsWait(t *testing.T) {
	var f Flight[string, int]
	release, done := lead(&f, "k", 3, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, "k", func() (int, error) { return 0, nil })
		waiter <- err
	}()
	awaitWaiters(t, &f, "k", 1)
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("leader got %v", err)
	}
}

// TestFlightNoLeak: many callers over a few keys — some failing, some
// cancelled — leave no goroutine and no key behind.
func TestFlightNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	var f Flight[string, int]
	var wg sync.WaitGroup
	for i := range 200 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%5 == 0 {
				cancel()
			}
			defer cancel()
			key := string(rune('a' + i%4))
			f.Do(ctx, key, func() (int, error) {
				time.Sleep(100 * time.Microsecond)
				if i%3 == 0 {
					return 0, errors.New("fail")
				}
				return i, nil
			})
		}()
	}
	wg.Wait()
	for _, key := range []string{"a", "b", "c", "d"} {
		if _, inFlight := f.Waiters(key); inFlight {
			t.Fatalf("key %s left in flight", key)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
