package axserver

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheMemory(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("library/a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put("library/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b, ok := c.Get("library/a")
	if !ok || string(b) != "x" {
		t.Fatalf("got %q ok=%v", b, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1/1/1", st)
	}
}

func TestCacheDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("library/k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// The artifact is a real file with the namespace folded into the name
	// via the injective "-"→"-_", "/"→"--" encoding.
	if _, err := os.Stat(filepath.Join(dir, "library--k.json")); err != nil {
		t.Fatalf("on-disk artifact missing: %v", err)
	}
	// A fresh instance over the same directory warms from disk.
	c2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := c2.Get("library/k")
	if !ok || string(b) != `{"v":1}` {
		t.Fatalf("disk promote failed: %q ok=%v", b, ok)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("disk promote not counted as hit: %+v", st)
	}
	// Overwrite is atomic and visible.
	if err := c2.Put("library/k", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if b, _ := c2.Get("library/k"); string(b) != `{"v":2}` {
		t.Fatalf("overwrite not visible: %q", b)
	}
	// Delete removes both tiers.
	c2.Delete("library/k")
	if _, ok := c2.Get("library/k"); ok {
		t.Fatal("entry survived Delete in memory")
	}
	if _, err := os.Stat(filepath.Join(dir, "library-k.json")); !os.IsNotExist(err) {
		t.Fatalf("entry survived Delete on disk: %v", err)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c, err := NewCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k/%d", i%4)
			for j := 0; j < 50; j++ {
				if err := c.Put(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				c.Get(key)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 4 {
		t.Fatalf("entries %d, want 4", st.Entries)
	}
}

// TestGetOrComputeCoalesces checks that N concurrent identical lookups run
// the computation exactly once: one leader computes, the others join its
// flight and are counted as coalesced.
func TestGetOrComputeCoalesces(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 7
	var computes atomic.Int64
	entered := make(chan struct{}) // closed once the leader is inside compute
	release := make(chan struct{}) // holds the leader until all waiters joined
	results := make(chan string, waiters+1)

	go func() {
		_, shared, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			computes.Add(1)
			close(entered)
			<-release
			return []byte("v"), nil
		})
		if err != nil {
			t.Error(err)
		}
		if shared {
			t.Error("leader reported shared=true")
		}
		results <- "leader"
	}()
	<-entered

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, shared, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			if !shared || string(b) != "v" {
				t.Errorf("waiter got %q shared=%v", b, shared)
			}
			results <- "waiter"
		}()
	}
	// Release the leader only once every waiter is registered on the
	// flight (parked or about to park on done) — synchronizing on the
	// flight's own waiter count, not on timing.
	if _, ok := c.flights.Waiters("k"); !ok {
		t.Fatal("leader's flight not registered")
	}
	deadline := time.Now().Add(10 * time.Second)
	for n, _ := c.flights.Waiters("k"); n < waiters; n, _ = c.flights.Waiters("k") {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined the flight", n, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	<-results

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Coalesced != waiters {
		t.Fatalf("coalesced %d, want %d (stats %+v)", st.Coalesced, waiters, st)
	}
	// A later lookup is a plain cache hit, not a coalesced one.
	if _, shared, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		t.Error("cache hit recomputed")
		return nil, nil
	}); err != nil || !shared {
		t.Fatalf("warm lookup: shared=%v err=%v", shared, err)
	}
	if after := c.Stats(); after.Coalesced != st.Coalesced {
		t.Errorf("plain hit was counted as coalesced")
	}
}

// TestGetOrComputeLeaderFailureNotShared checks failure is not propagated
// to coalesced waiters: a waiter whose leader fails retries and computes
// under its own authority.
func TestGetOrComputeLeaderFailureNotShared(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderErr := errors.New("leader cancelled")

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return nil, leaderErr
		})
		leaderDone <- err
	}()
	<-entered

	waiterDone := make(chan error, 1)
	var waiterComputed atomic.Bool
	go func() {
		b, shared, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			waiterComputed.Store(true)
			return []byte("recovered"), nil
		})
		if err == nil && (shared || string(b) != "recovered") {
			err = fmt.Errorf("waiter got %q shared=%v", b, shared)
		}
		waiterDone <- err
	}()

	// Let the waiter park on the flight, then fail the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-leaderDone; !errors.Is(err, leaderErr) {
		t.Fatalf("leader error %v, want %v", err, leaderErr)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter after leader failure: %v", err)
	}
	if !waiterComputed.Load() {
		t.Fatal("waiter neither failed nor recomputed")
	}
}

// TestGetOrComputePanicSafety checks a panicking compute cannot leak its
// flight: the leader gets an error, and the key remains usable (no future
// request parks forever on a dead flight).
func TestGetOrComputePanicSafety(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panicking compute returned no error")
	}
	// The flight must be gone...
	if _, leaked := c.flights.Waiters("k"); leaked {
		t.Fatal("panicked flight leaked in the flights map")
	}
	// ...and the key must still compute normally, without hanging.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, shared, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			return []byte("ok"), nil
		})
		if err != nil || shared || string(b) != "ok" {
			t.Errorf("recovery compute: b=%q shared=%v err=%v", b, shared, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("request after panicked flight hung")
	}
}

// TestGetOrComputeWaitCancellation checks a waiter abandons a stuck flight
// when its own context is cancelled.
func TestGetOrComputeWaitCancellation(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _, _ = c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return []byte("v"), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func() ([]byte, error) { return nil, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
}

// TestCacheDiskKeyCollision is the regression test for the key-encoding
// collision: a bare "/"→"-" replacement mapped "library/x" and "library-x"
// to the same file, so one artifact silently overwrote the other.  The
// injective encoding must keep every such pair distinct across restarts.
func TestCacheDiskKeyCollision(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{
		"library/x":   "slash",
		"library-x":   "dash",
		"library-/x":  "dash-slash",
		"library/-x":  "slash-dash",
		"library--x":  "double-dash",
		"library-_-x": "dash-underscore",
	}
	for k, v := range pairs {
		if err := c1.Put(k, []byte(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	// A fresh instance reads purely from disk: every key must come back
	// with its own value, proving no two keys shared a file.
	c2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range pairs {
		b, ok := c2.Get(k)
		if !ok {
			t.Errorf("key %q missing from disk", k)
			continue
		}
		if string(b) != v {
			t.Errorf("key %q returned %q, want %q — on-disk collision", k, b, v)
		}
	}
}
