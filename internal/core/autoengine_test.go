package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autoax/internal/dse"
	"autoax/internal/ml"
)

func TestAutoEngineSelection(t *testing.T) {
	app, lib, images := sobelFixture(t)
	cfg := testConfig()
	cfg.AutoEngine = true
	cfg.TrainConfigs = 80
	cfg.TestConfigs = 40
	p, err := NewPipeline(app, lib, images, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Opt.Engine.Name == "" {
		t.Fatal("no engine selected")
	}
	t.Logf("auto-selected engine: %s (QoR fidelity %.2f, HW fidelity %.2f)",
		p.Opt.Engine.Name, p.QoRFidelity, p.HWFidelity)
	// The winner must not be one of the engines that collapse on this
	// problem's raw feature scales.
	for _, bad := range []string{"Stochastic Gradient Descent", "Kernel ridge"} {
		if p.Opt.Engine.Name == bad {
			t.Errorf("bake-off selected a collapsing engine: %s", bad)
		}
	}
}

func TestAutoEngineTooFewSamples(t *testing.T) {
	app, lib, images := sobelFixture(t)
	cfg := testConfig()
	cfg.AutoEngine = true
	cfg.TrainConfigs = 2
	cfg.TestConfigs = 2
	p, err := NewPipeline(app, lib, images, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrainContext(context.Background()); err == nil {
		t.Error("expected error with 2 training samples")
	}
}

// autoPipeline returns an AutoEngine pipeline with its samples generated.
func autoPipeline(t *testing.T) *Pipeline {
	t.Helper()
	app, lib, images := sobelFixture(t)
	cfg := testConfig()
	cfg.AutoEngine = true
	cfg.TrainConfigs = 80
	cfg.TestConfigs = 40
	p, err := NewPipeline(app, lib, images, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GenerateSamplesContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAutoEngineParallelismInvariant: the bake-off fits its engines
// concurrently, yet the selected engine, both fidelities and the final
// models' test predictions are bit-identical at GOMAXPROCS 1 and 4.
func TestAutoEngineParallelismInvariant(t *testing.T) {
	p := autoPipeline(t)
	xq, _, xh, _ := dse.BuildTrainingData(p.Space, p.TestCfgs, p.TestRes)
	type outcome struct {
		engine   string
		qor, hw  uint64
		qorPreds []uint64
		hwPreds  []uint64
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p.Models = nil
		if err := p.TrainContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		o := outcome{engine: p.Opt.Engine.Name,
			qor: math.Float64bits(p.QoRFidelity), hw: math.Float64bits(p.HWFidelity)}
		for i := range xq {
			o.qorPreds = append(o.qorPreds, math.Float64bits(p.Models.QoR.Predict(xq[i])))
			o.hwPreds = append(o.hwPreds, math.Float64bits(p.Models.HW.Predict(xh[i])))
		}
		return o
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("GOMAXPROCS 1 selected %s (fidelities %x/%x), GOMAXPROCS 4 selected %s (%x/%x), or the models differ",
			one.engine, one.qor, one.hw, four.engine, four.qor, four.hw)
	}
}

// TestAutoEngineProgress: the train stage counts one item per bake-off
// fit plus the final fit, and ends at exactly 14 of 14.
func TestAutoEngineProgress(t *testing.T) {
	p := autoPipeline(t)
	rec := &stageRecorder{}
	p.Observer = rec.observe
	if err := p.TrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := int64(len(ml.Engines()) + 1)
	var train []stageEvent
	for _, e := range rec.events {
		if e.stage == StageTrain {
			train = append(train, e)
		}
	}
	for _, e := range train {
		if e.total != want || e.done > want {
			t.Fatalf("train progress %d/%d, want at most %d/%d", e.done, e.total, want, want)
		}
	}
	if last := train[len(train)-1]; last.done != want {
		t.Fatalf("train progress ended at %d/%d, want %d/%d", last.done, last.total, want, want)
	}
}

// TestAutoEngineCancellation cancels the context once a few bake-off fits
// have finished: Train returns ctx.Err(), selects no engine, trains no
// final models, and leaves no fitting goroutine behind.
func TestAutoEngineCancellation(t *testing.T) {
	p := autoPipeline(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Observer = func(stage string, done, total int64) {
		if stage == StageTrain && done >= 3 {
			cancel()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	engine := p.Opt.Engine.Name
	if err := p.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.Models != nil || p.Opt.Engine.Name != engine {
		t.Fatalf("cancelled bake-off left models %v, engine %q (was %q)", p.Models != nil, p.Opt.Engine.Name, engine)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the cancelled train, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
