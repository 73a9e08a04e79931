package apps

import (
	"math"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/imagedata"
)

func TestSobelOpCountsMatchTable1(t *testing.T) {
	app := Sobel()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := app.Graph.OpCounts()
	want := map[acl.Op]int{
		{Kind: acl.Add, Width: 8}:  2,
		{Kind: acl.Add, Width: 9}:  2,
		{Kind: acl.Sub, Width: 10}: 1,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%s: got %d, want %d", op, counts[op], n)
		}
	}
	if got := len(app.Graph.OpNodes()); got != 5 {
		t.Errorf("total ops = %d, want 5 (Table 1)", got)
	}
}

func TestFixedGFOpCountsMatchTable1(t *testing.T) {
	app := FixedGF()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := app.Graph.OpCounts()
	want := map[acl.Op]int{
		{Kind: acl.Add, Width: 8}:  4,
		{Kind: acl.Add, Width: 9}:  2,
		{Kind: acl.Add, Width: 16}: 4,
		{Kind: acl.Sub, Width: 16}: 1,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%s: got %d, want %d", op, counts[op], n)
		}
	}
	if got := len(app.Graph.OpNodes()); got != 11 {
		t.Errorf("total ops = %d, want 11 (Table 1)", got)
	}
}

func TestGenericGFOpCountsMatchTable1(t *testing.T) {
	app := GenericGF(GenericGFKernels(4))
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := app.Graph.OpCounts()
	want := map[acl.Op]int{
		{Kind: acl.Mul, Width: 8}:  9,
		{Kind: acl.Add, Width: 16}: 8,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%s: got %d, want %d", op, counts[op], n)
		}
	}
	if got := len(app.Graph.OpNodes()); got != 17 {
		t.Errorf("total ops = %d, want 17 (Table 1)", got)
	}
}

func TestSobelExactAgainstFormula(t *testing.T) {
	app := Sobel()
	im := imagedata.Synthetic(24, 20, 3)
	out := app.ExactOutput(im, nil)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			right := int64(im.AtClamped(x+1, y-1)) + 2*int64(im.AtClamped(x+1, y)) + int64(im.AtClamped(x+1, y+1))
			left := int64(im.AtClamped(x-1, y-1)) + 2*int64(im.AtClamped(x-1, y)) + int64(im.AtClamped(x-1, y+1))
			gx := right - left
			if gx < 0 {
				gx = -gx
			}
			if gx > 255 {
				gx = 255
			}
			if got := int64(out.At(x, y)); got != gx {
				t.Fatalf("(%d,%d): got %d, want %d", x, y, got, gx)
			}
		}
	}
}

func TestFixedGFExactAgainstFormula(t *testing.T) {
	app := FixedGF()
	im := imagedata.Synthetic(24, 20, 5)
	out := app.ExactOutput(im, nil)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var sc, se uint64
			sc = uint64(im.AtClamped(x-1, y-1)) + uint64(im.AtClamped(x+1, y-1)) +
				uint64(im.AtClamped(x-1, y+1)) + uint64(im.AtClamped(x+1, y+1))
			se = uint64(im.AtClamped(x, y-1)) + uint64(im.AtClamped(x, y+1)) +
				uint64(im.AtClamped(x-1, y)) + uint64(im.AtClamped(x+1, y))
			want := (26*sc + 30*se + 32*uint64(im.At(x, y))) >> 8
			if got := uint64(out.At(x, y)); got != want {
				t.Fatalf("(%d,%d): got %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestGenericGFExactAgainstFormula(t *testing.T) {
	kernels := GenericGFKernels(3)
	app := GenericGF(kernels)
	im := imagedata.Synthetic(16, 16, 7)
	for _, k := range kernels {
		out := app.ExactOutput(im, k)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				var acc uint64
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						acc += k[r*3+c] * uint64(im.AtClamped(x+c-1, y+r-1))
					}
				}
				want := acc >> 8
				if got := uint64(out.At(x, y)); got != want {
					t.Fatalf("(%d,%d): got %d, want %d", x, y, got, want)
				}
			}
		}
	}
}

func TestGaussianKernelProperties(t *testing.T) {
	for _, sigma := range []float64{0.3, 0.5, 0.8, 2.0} {
		k := GaussianKernel3x3(sigma)
		var sum uint64
		for _, v := range k {
			if v > 255 {
				t.Errorf("σ=%f: weight %d exceeds 8 bits", sigma, v)
			}
			sum += v
		}
		if sum != 256 {
			t.Errorf("σ=%f: weights sum to %d, want 256", sigma, sum)
		}
		// Symmetry.
		if k[0] != k[2] || k[0] != k[6] || k[0] != k[8] {
			t.Errorf("σ=%f: corners asymmetric: %v", sigma, k)
		}
		if k[1] != k[3] || k[1] != k[5] || k[1] != k[7] {
			t.Errorf("σ=%f: edges asymmetric: %v", sigma, k)
		}
		// Centre dominates.
		if k[4] < k[1] {
			t.Errorf("σ=%f: centre %d below edge %d", sigma, k[4], k[1])
		}
	}
}

func TestGenericGFKernelsSpread(t *testing.T) {
	ks := GenericGFKernels(50)
	if len(ks) != 50 {
		t.Fatalf("got %d kernels", len(ks))
	}
	// σ=0.3 (first) is peakier than σ=0.8 (last).
	if ks[0][4] <= ks[49][4] {
		t.Errorf("centre weights should decrease with σ: %d vs %d", ks[0][4], ks[49][4])
	}
}

func TestAllAppsExactConfigurationsScoreOne(t *testing.T) {
	images := imagedata.BenchmarkSet(1, 16, 16, 1)
	for _, app := range []*accel.ImageApp{Sobel(), FixedGF(), GenericGF(GenericGFKernels(2))} {
		ev, err := accel.NewEvaluator(app, images)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		res, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if math.Abs(res.SSIM-1) > 1e-12 {
			t.Errorf("%s: exact SSIM = %f, want 1 (HW and SW models disagree)", app.Name, res.SSIM)
		}
	}
}

func TestSobelPMFDiagonalRidge(t *testing.T) {
	// Figure 3: operand pairs of add1 concentrate near the diagonal
	// because neighbouring pixels are similar.
	app := Sobel()
	images := imagedata.BenchmarkSet(2, 32, 24, 4)
	pmfs := app.Profile(images)
	if len(pmfs) != 5 {
		t.Fatalf("got %d PMFs", len(pmfs))
	}
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
	if nearDiag/total < 0.6 {
		t.Errorf("add1 diagonal mass = %f, want > 0.6", nearDiag/total)
	}
}

// TestNewBuildsEveryName pins the registry: every name in Names builds
// the case study of that name, and an unknown name is an error.
func TestNewBuildsEveryName(t *testing.T) {
	for _, name := range Names() {
		app, err := New(name, 2)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if app.Graph.Name != name {
			t.Errorf("New(%q) built %q", name, app.Graph.Name)
		}
	}
	if _, err := New("warp-drive", 2); err == nil {
		t.Error("New accepted an unknown name")
	}
}
