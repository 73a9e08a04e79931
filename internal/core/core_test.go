package core

import (
	"context"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
)

// sobelFixture builds a small library and image set sized for fast tests.
func sobelFixture(t *testing.T) (*accel.ImageApp, *acl.Library, []*imagedata.Image) {
	t.Helper()
	lib, err := acl.Build([]acl.BuildSpec{
		{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 30},
		{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 30},
		{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 25},
	}, 1, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	images := imagedata.BenchmarkSet(2, 32, 24, 7)
	return apps.Sobel(), lib, images
}

func testConfig() Config {
	return Config{
		TrainConfigs: 60,
		TestConfigs:  40,
		Engine:       ml.Engines()[0],
		SearchEvals:  3000,
		Stagnation:   50,
		Seed:         1,
	}
}

func TestPipelineEndToEndSobel(t *testing.T) {
	app, lib, images := sobelFixture(t)
	p, err := NewPipeline(app, lib, images, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Step 1 products.
	if len(p.PMFs) != 5 {
		t.Fatalf("got %d PMFs", len(p.PMFs))
	}
	if len(p.Space) != 5 {
		t.Fatalf("space has %d ops", len(p.Space))
	}
	for i, rl := range p.Space {
		if len(rl) == 0 {
			t.Fatalf("op %d: empty reduced library", i)
		}
		full := len(lib.For(rl[0].Op))
		if len(rl) > full {
			t.Errorf("op %d: reduced library larger than the original", i)
		}
		// The reduced library must retain a zero-WMED anchor.
		if rl[0].WMED != 0 {
			t.Errorf("op %d: front does not start exact (WMED %f)", i, rl[0].WMED)
		}
	}

	// Step 2 products: a tree model should order configurations well.
	if p.QoRFidelity < 0.7 {
		t.Errorf("QoR fidelity = %f, implausibly low", p.QoRFidelity)
	}
	if p.HWFidelity < 0.7 {
		t.Errorf("HW fidelity = %f, implausibly low", p.HWFidelity)
	}

	// Step 3 products.
	if p.Pseudo.Len() == 0 {
		t.Fatal("empty pseudo Pareto set")
	}
	if len(p.FinalFront) == 0 {
		t.Fatal("empty final front")
	}
	if len(p.FinalFront) > p.Pseudo.Len() {
		t.Error("final front cannot exceed the pseudo set")
	}

	// Final front spans a real trade-off: its best SSIM should approach 1
	// (an exact-ish configuration) and its smallest area must be below the
	// largest.
	cfgs, res := p.FrontResults()
	if len(cfgs) != len(res) {
		t.Fatal("front slices out of sync")
	}
	bestSSIM, minArea, maxArea := 0.0, res[0].Area, res[0].Area
	for _, r := range res {
		if r.SSIM > bestSSIM {
			bestSSIM = r.SSIM
		}
		if r.Area < minArea {
			minArea = r.Area
		}
		if r.Area > maxArea {
			maxArea = r.Area
		}
	}
	// With this deliberately tiny budget (60 train configs, 3000 search
	// evals) the archive may keep a near-exact rather than exact corner;
	// the paper-scale budgets in the experiment drivers reach ≈1.0.
	if bestSSIM < 0.95 {
		t.Errorf("best front SSIM = %f; the high-quality corner is missing", bestSSIM)
	}
	if minArea >= maxArea {
		t.Errorf("front shows no area spread: %f..%f", minArea, maxArea)
	}
}

func TestPipelineStagesAreIdempotentEntryPoints(t *testing.T) {
	app, lib, images := sobelFixture(t)
	cfg := testConfig()
	cfg.SearchEvals = 1000
	cfg.TrainConfigs = 30
	cfg.TestConfigs = 20
	p, err := NewPipeline(app, lib, images, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Calling a late stage runs the earlier ones implicitly.
	if err := p.ExploreContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Space == nil || p.Models == nil || p.Pseudo == nil {
		t.Error("implicit stage execution incomplete")
	}
}

func TestNewPipelineRejectsMissingOps(t *testing.T) {
	app := apps.Sobel()
	lib := acl.NewLibrary() // empty
	images := imagedata.BenchmarkSet(1, 16, 16, 1)
	if _, err := NewPipeline(app, lib, images, testConfig()); err == nil {
		t.Error("expected missing-op error")
	}
}

func TestReducedLibrariesAreParetoOptimal(t *testing.T) {
	app, lib, images := sobelFixture(t)
	p, err := NewPipeline(app, lib, images, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReduceContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for k, rl := range p.Space {
		for i, a := range rl {
			for j, b := range rl {
				if i == j {
					continue
				}
				if a.WMED <= b.WMED && a.Area <= b.Area && (a.WMED < b.WMED || a.Area < b.Area) {
					t.Fatalf("op %d: %s dominates %s inside RL", k, a.Name, b.Name)
				}
			}
		}
	}
}
