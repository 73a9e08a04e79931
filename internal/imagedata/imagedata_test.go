package imagedata

import (
	"image"
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// NeighborCorrelation returns the Pearson correlation between horizontally
// adjacent pixels — a cheap natural-statistics check (natural images score
// well above 0.8; white noise scores near 0).
func NeighborCorrelation(im *Image) float64 {
	var sx, sy, sxx, syy, sxy, n float64
	for y := 0; y < im.H; y++ {
		for x := 0; x+1 < im.W; x++ {
			a := float64(im.At(x, y))
			b := float64(im.At(x+1, y))
			sx += a
			sy += b
			sxx += a * a
			syy += b * b
			sxy += a * b
			n++
		}
	}
	cov := sxy/n - sx/n*sy/n
	va := sxx/n - sx/n*sx/n
	vb := syy/n - sy/n*sy/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 48, 5)
	b := Synthetic(64, 48, 5)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different images")
		}
	}
	c := Synthetic(64, 48, 6)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

func TestSyntheticNaturalStatistics(t *testing.T) {
	// Natural-image property the PMF profiling relies on: adjacent pixels
	// are strongly correlated (Figure 3's diagonal ridge).
	for seed := int64(1); seed <= 5; seed++ {
		im := Synthetic(96, 64, seed)
		if r := NeighborCorrelation(im); r < 0.8 {
			t.Errorf("seed %d: neighbour correlation %f < 0.8", seed, r)
		}
	}
}

func TestSyntheticUsesDynamicRange(t *testing.T) {
	im := Synthetic(96, 64, 3)
	lo, hi := im.Pix[0], im.Pix[0]
	for _, p := range im.Pix {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi-lo < 80 {
		t.Errorf("dynamic range only %d..%d", lo, hi)
	}
}

func TestBenchmarkSetPrefixStable(t *testing.T) {
	s3 := BenchmarkSet(3, 32, 32, 100)
	s5 := BenchmarkSet(5, 32, 32, 100)
	for i := 0; i < 3; i++ {
		for j := range s3[i].Pix {
			if s3[i].Pix[j] != s5[i].Pix[j] {
				t.Fatal("benchmark sets of different sizes should share a prefix")
			}
		}
	}
}

func TestAtClamped(t *testing.T) {
	im := New(4, 3)
	im.Set(0, 0, 10)
	im.Set(3, 2, 20)
	if im.AtClamped(-5, -5) != 10 {
		t.Error("top-left clamp failed")
	}
	if im.AtClamped(100, 100) != 20 {
		t.Error("bottom-right clamp failed")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.png")
	im := Synthetic(40, 30, 9)
	dst := image.NewGray(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dst.SetGray(x, y, color.Gray{Y: im.At(x, y)})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := png.Encode(f, dst); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != im.W || got.H != im.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, im.W, im.H)
	}
	for i := range im.Pix {
		if im.Pix[i] != got.Pix[i] {
			t.Fatal("pixels changed in PNG round trip")
		}
	}
}

func TestLoadPNGMissing(t *testing.T) {
	if _, err := LoadPNG(filepath.Join(os.TempDir(), "does-not-exist-autoax.png")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestNeighborCorrelationNoise(t *testing.T) {
	// A deterministic pseudo-noise image must score near zero.
	im := New(64, 64)
	state := uint32(12345)
	for i := range im.Pix {
		state = state*1664525 + 1013904223
		im.Pix[i] = uint8(state >> 24)
	}
	if r := NeighborCorrelation(im); r > 0.2 || r < -0.2 {
		t.Errorf("noise correlation %f should be ≈0", r)
	}
}
