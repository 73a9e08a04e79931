package acl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autoax/internal/approxgen"
	"autoax/internal/arith"
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
			t.Fatalf("goroutines: %d after the build, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildParallelMatchesSequential pins the parallel build to the
// one-at-a-time one: the serialized library is byte-identical at
// GOMAXPROCS 1 and 4.  The mix covers exhaustive sweeps (add8, sub10), the
// Monte-Carlo path (add16) and enough add8 mutants that deduplication
// drops behavioural duplicates, so adding circuits in completion order
// instead of generation order would keep different survivors.
func TestBuildParallelMatchesSequential(t *testing.T) {
	specs := []BuildSpec{{Op{Add, 8}, 160}, {Op{Sub, 10}, 6}, {Op{Add, 16}, 6}}
	opts := Options{Samples: 1 << 12}
	build := func(p int) []byte {
		var lib *Library
		var err error
		withGOMAXPROCS(p, func() { lib, err = Build(specs, 7, opts) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", p, err)
		}
		if n := len(lib.For(Op{Add, 8})); n >= 160 {
			t.Fatalf("add8 kept %d of 160 circuits; the mix must contain duplicates", n)
		}
		b, err := json.Marshal(lib)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := build(1)
	for _, p := range []int{4, 4, 8, 8} {
		if par := build(p); !bytes.Equal(seq, par) {
			t.Fatalf("library at GOMAXPROCS %d differs from GOMAXPROCS 1 (%d vs %d bytes)", p, len(par), len(seq))
		}
	}
}

// TestBuildAssemblesInIndexOrder forces circuits to finish in reverse
// order — each one waits for its successor — and requires the results in
// index order, so completion-order assembly fails deterministically.
func TestBuildAssemblesInIndexOrder(t *testing.T) {
	const n = 8
	var finished [n + 1]chan struct{}
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var out []*Circuit
	var err error
	withGOMAXPROCS(n, func() {
		out, err = characterizeAll(context.Background(), n, func(i int) (*Circuit, error) {
			defer close(finished[i])
			select {
			case <-finished[i+1]:
			case <-time.After(10 * time.Second):
				t.Errorf("circuit %d: successor never finished", i)
			}
			return &Circuit{Name: strconv.Itoa(i)}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range out {
		if c.Name != strconv.Itoa(i) {
			t.Fatalf("out[%d] = circuit %s; results must be in index order", i, c.Name)
		}
	}
}

// badInputs returns a 7-bit adder, whose 14 inputs Characterize rejects
// for an add8 slot.
func badInputs(name string) approxgen.Variant {
	nl := arith.NewRippleCarryAdder(7)
	nl.Name = name
	return approxgen.Variant{N: nl, Family: "bad"}
}

// TestBuildErrorIsLowestIndex plants bad netlists at k and at a later m,
// holds circuit k until m has failed, and requires the error to be k's:
// the one a sequential loop returns.
func TestBuildErrorIsLowestIndex(t *testing.T) {
	op := Op{Add, 8}
	vs := approxgen.AdderVariants(8, 12, 1)
	const k, m = 3, 9
	vs[k] = badInputs("bad_k")
	vs[m] = badInputs("bad_m")
	mFailed := make(chan struct{})
	base := runtime.NumGoroutine()
	var err error
	withGOMAXPROCS(4, func() {
		_, err = characterizeAll(context.Background(), len(vs), func(i int) (*Circuit, error) {
			switch i {
			case k:
				select {
				case <-mFailed:
				case <-time.After(10 * time.Second):
					t.Error("circuit m never failed while k was held")
				}
			case m:
				defer close(mFailed)
			}
			return characterizeVariant(op, vs[i], Options{})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "bad_k") {
		t.Fatalf("error = %v, want circuit %d's (bad_k)", err, k)
	}
	waitGoroutines(t, base)
}

// TestBuildFailureCancelsSiblings: the first failure stops the build —
// circuits not yet claimed are never characterized.
func TestBuildFailureCancelsSiblings(t *testing.T) {
	const n = 200
	for _, p := range []int{1, 4} {
		var ran atomic.Int32
		var err error
		withGOMAXPROCS(p, func() {
			_, err = characterizeAll(context.Background(), n, func(i int) (*Circuit, error) {
				if i == 0 {
					return nil, errors.New("circuit 0 failed")
				}
				ran.Add(1)
				time.Sleep(time.Millisecond)
				return &Circuit{}, nil
			})
		})
		if err == nil || err.Error() != "circuit 0 failed" {
			t.Fatalf("GOMAXPROCS %d: error = %v, want circuit 0's", p, err)
		}
		if r := ran.Load(); r >= n/2 {
			t.Fatalf("GOMAXPROCS %d: %d of %d siblings ran after the first failure", p, r, n-1)
		}
	}
}

// TestBuildPanicBecomesError plants a nil netlist, which panics inside
// Characterize on a worker goroutine: the build must fail with that
// circuit's error, not crash the process.
func TestBuildPanicBecomesError(t *testing.T) {
	op := Op{Add, 8}
	vs := approxgen.AdderVariants(8, 8, 1)
	const k = 5
	vs[k].N = nil
	base := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		var err error
		withGOMAXPROCS(p, func() {
			_, err = characterizeAll(context.Background(), len(vs), func(i int) (*Circuit, error) {
				return characterizeVariant(op, vs[i], Options{})
			})
		})
		if err == nil || !strings.Contains(err.Error(), "circuit 5: panic") {
			t.Fatalf("GOMAXPROCS %d: error = %v, want circuit %d's panic", p, err, k)
		}
	}
	waitGoroutines(t, base)
}

// TestBuildCancellation covers a context cancelled before the build and
// one cancelled once characterization is under way: both return
// context.Canceled and leave no worker behind.
func TestBuildCancellation(t *testing.T) {
	specs := []BuildSpec{{Op{Sub, 10}, 40}}
	base := runtime.NumGoroutine()
	withGOMAXPROCS(4, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := BuildContext(ctx, specs, 1, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("pre-cancelled: error = %v, want context.Canceled", err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		start := characterized.Value()
		done := make(chan error, 1)
		go func() {
			_, err := BuildContext(ctx, specs, 1, Options{})
			done <- err
		}()
		for characterized.Value() == start {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("mid-build: error = %v, want context.Canceled", err)
		}
		if n := characterized.Value() - start; n >= 40 {
			t.Errorf("mid-build cancel still characterized all %d circuits", n)
		}
	})
	waitGoroutines(t, base)
}

// TestBuildRecordsWallTime checks one autoax_acl_build_us sample per build.
func TestBuildRecordsWallTime(t *testing.T) {
	before := buildSpans.Count()
	if _, err := Build([]BuildSpec{{Op{Add, 8}, 4}}, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := buildSpans.Count() - before; n != 1 {
		t.Fatalf("build samples = %d, want 1", n)
	}
}
