package core

import (
	"context"
	"sync"
	"testing"
)

// stageRecorder collects observer events for assertions.
type stageRecorder struct {
	mu     sync.Mutex
	events []stageEvent
}

type stageEvent struct {
	stage       string
	done, total int64
}

func (r *stageRecorder) observe(stage string, done, total int64) {
	r.mu.Lock()
	r.events = append(r.events, stageEvent{stage, done, total})
	r.mu.Unlock()
}

func TestPipelineObserverStageSequence(t *testing.T) {
	app, lib, images := sobelFixture(t)
	p, err := NewPipeline(app, lib, images, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &stageRecorder{}
	p.Observer = rec.observe
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(rec.events) == 0 {
		t.Fatal("observer saw no events")
	}

	// Collapse the event stream to the stage visit order.  Concurrent
	// workers may interleave steps within a stage, but stages themselves
	// are serialized by the pipeline goroutine, so the collapsed order
	// must be exactly the canonical StageOrder.
	var visits []string
	for _, e := range rec.events {
		if len(visits) == 0 || visits[len(visits)-1] != e.stage {
			visits = append(visits, e.stage)
		}
	}
	if len(visits) != len(StageOrder) {
		t.Fatalf("stage visits = %v, want %v", visits, StageOrder)
	}
	for i, s := range StageOrder {
		if visits[i] != s {
			t.Fatalf("stage visits = %v, want %v", visits, StageOrder)
		}
	}

	// Per stage: first event announces done=0, every event stays within
	// [0, total], and the final event reports done=total.  Steps within
	// one stage come from up to GOMAXPROCS goroutines at once, so their
	// events may arrive out of order — check the max, not strict ordering.
	perStage := map[string][]stageEvent{}
	for _, e := range rec.events {
		perStage[e.stage] = append(perStage[e.stage], e)
	}
	wantTotals := map[string]int64{
		StageReduce:   int64(len(p.Space)),
		StageSamples:  int64(p.Opt.TrainConfigs + p.Opt.TestConfigs),
		StageTrain:    1,
		StageExplore:  int64(p.Opt.SearchEvals),
		StageFinalize: int64(len(p.FinalCfgs)),
	}
	for stage, evs := range perStage {
		if evs[0].done != 0 {
			t.Errorf("%s: first event done=%d, want 0", stage, evs[0].done)
		}
		last := evs[len(evs)-1]
		want := wantTotals[stage]
		if last.total != want {
			t.Errorf("%s: total=%d, want %d", stage, last.total, want)
		}
		if last.done != want {
			t.Errorf("%s: final done=%d, want %d", stage, last.done, want)
		}
		var maxDone int64
		for _, e := range evs {
			if e.done > maxDone {
				maxDone = e.done
			}
			if e.done < 0 || e.done > e.total {
				t.Errorf("%s: event done=%d outside [0,%d]", stage, e.done, e.total)
			}
		}
		if maxDone != want {
			t.Errorf("%s: max done=%d, want %d", stage, maxDone, want)
		}
	}
}

// TestPipelineObserverDoesNotPerturbRun pins the invariant the whole
// observability layer depends on: attaching an observer changes nothing
// about the run's products.
func TestPipelineObserverDoesNotPerturbRun(t *testing.T) {
	run := func(obs StageObserver) *Pipeline {
		app, lib, images := sobelFixture(t)
		p, err := NewPipeline(app, lib, images, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		p.Observer = obs
		if err := p.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := run(nil)
	rec := &stageRecorder{}
	observed := run(rec.observe)

	if len(plain.FinalCfgs) != len(observed.FinalCfgs) {
		t.Fatalf("final cfg count differs: %d vs %d", len(plain.FinalCfgs), len(observed.FinalCfgs))
	}
	for i := range plain.FinalCfgs {
		for j := range plain.FinalCfgs[i] {
			if plain.FinalCfgs[i][j] != observed.FinalCfgs[i][j] {
				t.Fatalf("final cfg %d differs at op %d", i, j)
			}
		}
	}
	if plain.QoRFidelity != observed.QoRFidelity || plain.HWFidelity != observed.HWFidelity {
		t.Fatalf("fidelities differ: (%v,%v) vs (%v,%v)",
			plain.QoRFidelity, plain.HWFidelity, observed.QoRFidelity, observed.HWFidelity)
	}
}
