package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withGOMAXPROCS runs fn at GOMAXPROCS p and restores the previous value.
func withGOMAXPROCS(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// waitGoroutines waits for the goroutine count to fall back to base; a
// worker that has signalled its WaitGroup may still be exiting.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Each, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEachRunsEveryIndex checks every index runs exactly once and errors
// land at their own index, one goroutine or several.
func TestEachRunsEveryIndex(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		withGOMAXPROCS(p, func() {
			const n = 37
			var runs [n]atomic.Int32
			errs := Each(context.Background(), n, func(i int) error {
				runs[i].Add(1)
				if i%5 == 0 {
					return fmt.Errorf("fail %d", i)
				}
				return nil
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d: index %d ran %d times", p, i, got)
				}
				if want := fmt.Sprintf("fail %d", i); i%5 == 0 && (errs[i] == nil || errs[i].Error() != want) {
					t.Fatalf("GOMAXPROCS %d: errs[%d] = %v, want %q", p, i, errs[i], want)
				} else if i%5 != 0 && errs[i] != nil {
					t.Fatalf("GOMAXPROCS %d: errs[%d] = %v, want nil", p, i, errs[i])
				}
			}
		})
	}
}

// TestEachBoundsGoroutines: Each never runs more than GOMAXPROCS calls at
// once, and still runs every index exactly once.
func TestEachBoundsGoroutines(t *testing.T) {
	for _, p := range []int{1, 2} {
		withGOMAXPROCS(p, func() {
			const n = 40
			var runs [n]atomic.Int32
			var running, peak atomic.Int32
			Each(context.Background(), n, func(i int) error {
				now := running.Add(1)
				for q := peak.Load(); now > q && !peak.CompareAndSwap(q, now); q = peak.Load() {
				}
				time.Sleep(100 * time.Microsecond)
				running.Add(-1)
				runs[i].Add(1)
				return nil
			})
			if q := peak.Load(); q > int32(p) {
				t.Fatalf("GOMAXPROCS %d: %d calls ran at once", p, q)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d: index %d ran %d times", p, i, got)
				}
			}
		})
	}
}

// TestEachPanicBecomesError: a panicking call reports its panic at its
// own index, the others still run, and no goroutine is left behind.
func TestEachPanicBecomesError(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		withGOMAXPROCS(p, func() {
			errs := Each(context.Background(), 8, func(i int) error {
				if i == 3 {
					panic("boom")
				}
				return nil
			})
			for i, err := range errs {
				if (i == 3) != (err != nil) {
					t.Fatalf("GOMAXPROCS %d: errs[%d] = %v", p, i, err)
				}
			}
			if !strings.Contains(errs[3].Error(), "panic: boom") {
				t.Fatalf("GOMAXPROCS %d: errs[3] = %v, want the panic", p, errs[3])
			}
		})
	}
	waitGoroutines(t, base)
}

// TestEachCancellation: indices not started when the context is done
// report ctx.Err(); calls already running finish; nothing leaks.
func TestEachCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, err := range Each(ctx, 5, func(int) error { t.Error("ran under a done context"); return nil }) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled: err = %v", err)
		}
	}
	withGOMAXPROCS(2, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran atomic.Int32
		errs := Each(ctx, 100, func(i int) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			return nil
		})
		cancelled := 0
		for _, err := range errs {
			if errors.Is(err, context.Canceled) {
				cancelled++
			} else if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
		}
		if int(ran.Load())+cancelled != 100 || cancelled == 0 {
			t.Fatalf("ran %d, cancelled %d of 100", ran.Load(), cancelled)
		}
	})
	waitGoroutines(t, base)
}

// TestEachRunsLowerIndicesAfterCancel: a call that cancels the context
// stops later claims only; every lower index was claimed first and runs,
// as in a sequential loop.
func TestEachRunsLowerIndicesAfterCancel(t *testing.T) {
	for _, p := range []int{1, 4} {
		withGOMAXPROCS(p, func() {
			for m := 0; m < 64; m += 7 {
				ctx, cancel := context.WithCancel(context.Background())
				errs := Each(ctx, 64, func(i int) error {
					if i == m {
						cancel()
						return fmt.Errorf("fail %d", i)
					}
					return nil
				})
				cancel()
				for i, err := range errs {
					switch {
					case i < m && err != nil:
						t.Fatalf("GOMAXPROCS %d, cancel at %d: errs[%d] = %v, want nil", p, m, i, err)
					case i > m && err != nil && !errors.Is(err, context.Canceled):
						t.Fatalf("GOMAXPROCS %d, cancel at %d: errs[%d] = %v", p, m, i, err)
					}
				}
			}
		})
	}
}
