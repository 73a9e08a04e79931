package accel

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"autoax/internal/acl"
	"autoax/internal/approxgen"
	"autoax/internal/imagedata"
)

// tinyApp builds a minimal app: out = clamp((a + b) >> 1, 8) over two
// window pixels — enough to exercise every evaluator path cheaply.
func tinyApp() *ImageApp {
	g := NewGraph("tiny")
	a := g.Input("a", 8)
	b := g.Input("b", 8)
	sum := g.Add("add", 8, a, b)
	g.Output(g.Clamp("sat", g.ShiftR("half", sum, 1), 8))
	return &ImageApp{
		Name:  "tiny",
		Graph: g,
		Taps:  []WindowTap{{0, 0}, {1, 0}},
		Sims:  [][]uint64{{}},
	}
}

func TestGraphValidate(t *testing.T) {
	app := tinyApp()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	// Width violation: 9-bit arg into an 8-bit op.
	g := NewGraph("bad")
	a := g.Input("a", 8)
	b := g.Input("b", 8)
	s := g.Add("s", 8, a, b)     // 9-bit result
	bad := g.Add("bad", 8, s, a) // 9-bit arg into 8-bit adder
	g.Output(bad)
	if err := g.Validate(); err == nil {
		t.Error("expected width violation")
	}
}

func TestEvalExactTiny(t *testing.T) {
	app := tinyApp()
	got := app.Graph.EvalExact([]uint64{100, 60})
	if got[0] != 80 {
		t.Errorf("out = %d, want 80", got[0])
	}
	got = app.Graph.EvalExact([]uint64{255, 255})
	if got[0] != 255 {
		t.Errorf("out = %d, want 255", got[0])
	}
}

func TestEvalExactNodeSemantics(t *testing.T) {
	g := NewGraph("sem")
	x := g.Input("x", 8)
	c := g.Constant("c", 8, 200)
	sub := g.Sub("sub", 8, x, c) // 9-bit two's complement
	abs := g.Abs("abs", sub)
	g.Output(g.Clamp("sat", abs, 8))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// |50 - 200| = 150.
	if got := g.EvalExact([]uint64{50}); got[0] != 150 {
		t.Errorf("abs diff = %d, want 150", got[0])
	}
	// |250 - 200| = 50.
	if got := g.EvalExact([]uint64{250}); got[0] != 50 {
		t.Errorf("abs diff = %d, want 50", got[0])
	}
}

func TestShiftAndTruncSemantics(t *testing.T) {
	g := NewGraph("shift")
	x := g.Input("x", 8)
	sl := g.ShiftL("sl", x, 2)
	tr := g.Trunc("tr", sl, 6)
	g.Output(g.ShiftR("sr", tr, 1))
	v := g.EvalExact([]uint64{0b10110110})
	// x<<2 = 10'1101_1000; trunc6 = 01_1000; >>1 = 0_1100.
	if v[0] != 0b01100 {
		t.Errorf("got %b", v[0])
	}
}

func TestExactConfigurationMatchesSoftwareModel(t *testing.T) {
	app := tinyApp()
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Flatten(app.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := flat.WordFunc(8, 8)
	for a := uint64(0); a < 256; a += 7 {
		for b := uint64(0); b < 256; b += 11 {
			want := app.Graph.EvalExact([]uint64{a, b})[0]
			if got := f(a, b); got != want {
				t.Fatalf("flat(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestConfigurationMismatchRejected(t *testing.T) {
	app := tinyApp()
	if _, err := Flatten(app.Graph, Configuration{}); err == nil {
		t.Error("expected length mismatch error")
	}
	wrong, err := acl.Characterize(approxgen.TruncAdder(9, 1), acl.Op{Kind: acl.Add, Width: 9}, "t", acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Flatten(app.Graph, Configuration{wrong}); err == nil {
		t.Error("expected op mismatch error")
	}
}

func TestEvaluatorExactConfigScoresOne(t *testing.T) {
	app := tinyApp()
	images := imagedata.BenchmarkSet(2, 24, 16, 1)
	ev, err := NewEvaluator(app, images)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SSIM-1) > 1e-12 {
		t.Errorf("exact configuration SSIM = %f, want 1", res.SSIM)
	}
	if res.Area <= 0 || res.Energy <= 0 || res.Delay <= 0 {
		t.Errorf("bad hardware metrics: %+v", res)
	}
}

func TestEvaluatorApproxConfigDegrades(t *testing.T) {
	app := tinyApp()
	images := imagedata.BenchmarkSet(2, 24, 16, 1)
	ev, err := NewEvaluator(app, images)
	if err != nil {
		t.Fatal(err)
	}
	exactCfg, _ := ExactConfiguration(app.Graph, acl.Options{})
	exactRes, _ := ev.Evaluate(exactCfg)

	tr, err := acl.Characterize(approxgen.TruncAdder(8, 5), acl.Op{Kind: acl.Add, Width: 8}, "trunc", acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(Configuration{tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSIM >= exactRes.SSIM {
		t.Errorf("approx SSIM %f should be below exact %f", res.SSIM, exactRes.SSIM)
	}
	if res.Area >= exactRes.Area {
		t.Errorf("approx area %f should be below exact %f", res.Area, exactRes.Area)
	}
	if res.SSIM < 0.2 {
		t.Errorf("SSIM %f implausibly low for 5-bit truncation of an average", res.SSIM)
	}
}

func TestProfileTinyApp(t *testing.T) {
	app := tinyApp()
	images := imagedata.BenchmarkSet(1, 16, 16, 2)
	pmfs := app.Profile(images)
	if len(pmfs) != 1 {
		t.Fatalf("got %d PMFs, want 1", len(pmfs))
	}
	if math.Abs(pmfs[0].Total()-1) > 1e-9 {
		t.Errorf("PMF not normalized: %f", pmfs[0].Total())
	}
	// The app adds horizontally adjacent pixels: strong mass near the
	// diagonal (natural-image correlation).
	var nearDiag, total float64
	pmfs[0].ForEach(func(a, b uint64, w float64) {
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		if d <= 32 {
			nearDiag += w
		}
		total += w
	})
	if nearDiag/total < 0.7 {
		t.Errorf("only %f of mass within ±32 of the diagonal", nearDiag/total)
	}
}

func TestOpCounts(t *testing.T) {
	app := tinyApp()
	counts := app.Graph.OpCounts()
	if counts[acl.Op{Kind: acl.Add, Width: 8}] != 1 || len(counts) != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestEvaluatorCloneConcurrentMatchesSequential checks the Clone contract:
// clones share the immutable precomputed state but own their scratch, so
// concurrent evaluation on clones reproduces exactly what the original
// produces sequentially.  Run under -race this also proves the shared
// state is never written after construction.
func TestEvaluatorCloneConcurrentMatchesSequential(t *testing.T) {
	app := tinyApp()
	images := imagedata.BenchmarkSet(2, 24, 16, 1)
	ev, err := NewEvaluator(app, images)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := acl.Characterize(approxgen.TruncAdder(8, 5), acl.Op{Kind: acl.Add, Width: 8}, "trunc", acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Configuration{exact, {tr}}
	want := make([]Result, len(cfgs))
	for i, c := range cfgs {
		if want[i], err = ev.Evaluate(c); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		clone := ev.Clone()
		if clone == ev {
			t.Fatal("Clone returned the original evaluator")
		}
		wg.Add(1)
		go func(clone *Evaluator) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, c := range cfgs {
					got, err := clone.Evaluate(c)
					if err != nil {
						errs <- err
						return
					}
					if got != want[i] {
						errs <- fmt.Errorf("clone result %+v differs from sequential %+v", got, want[i])
						return
					}
				}
			}
		}(clone)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The original keeps working after (and alongside) its clones.
	for i, c := range cfgs {
		got, err := ev.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("original evaluator drifted after cloning: %+v vs %+v", got, want[i])
		}
	}
}
