package dse

import (
	"testing"
)

// TestHillClimbProgressCallback checks the Progress contract of the
// hillclimb engine: called at every checkpoint with monotonically advancing
// done, a final done=total call, and — the load-bearing invariant — a
// bit-identical archive with or without the callback attached.
func TestHillClimbProgressCallback(t *testing.T) {
	m := trainedModels(t, 4, 7)
	opt := SearchOptions{Evaluations: 4000, Stagnation: 25, Seed: 3}

	for _, path := range []struct {
		name string
		run  func(SearchOptions) (ptsLen int, key map[string]bool)
	}{
		{"incremental", func(o SearchOptions) (int, map[string]bool) {
			a := mustRun(t, "hillclimb", m, o)
			return a.Len(), archiveKeySet(t, a.Points(), a.Payloads())
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			baseLen, baseKeys := path.run(opt)

			var calls []int
			withProgress := opt
			withProgress.Progress = func(done, total int) {
				if total != opt.Evaluations {
					t.Fatalf("Progress total=%d, want %d", total, opt.Evaluations)
				}
				calls = append(calls, done)
			}
			gotLen, gotKeys := path.run(withProgress)

			if len(calls) == 0 {
				t.Fatal("Progress never called")
			}
			for i := 1; i < len(calls); i++ {
				if calls[i] < calls[i-1] {
					t.Fatalf("Progress not monotone: %v", calls)
				}
			}
			if last := calls[len(calls)-1]; last != opt.Evaluations {
				t.Fatalf("final Progress done=%d, want %d", last, opt.Evaluations)
			}
			// 4000 evaluations at ctxCheckStride=1024 → checkpoints at
			// 1024, 2048, 3072 plus the completion call.
			if len(calls) < 4 {
				t.Fatalf("got %d Progress calls, want ≥4 (checkpoints + completion)", len(calls))
			}

			if gotLen != baseLen {
				t.Fatalf("archive size changed under Progress: %d vs %d", gotLen, baseLen)
			}
			for k := range baseKeys {
				if !gotKeys[k] {
					t.Fatalf("archive entry %s missing under Progress", k)
				}
			}
		})
	}
}
