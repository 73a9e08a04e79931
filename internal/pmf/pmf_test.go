package pmf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	p := New(8, 8)
	p.Add(3, 5, 2)
	p.Add(3, 5, 1)
	p.Add(7, 7, 1)
	if got := p.Total(); got != 4 {
		t.Errorf("total = %f, want 4", got)
	}
	p.Normalize()
	if got := p.Prob(3, 5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(3,5) = %f, want 0.75", got)
	}
	if got := p.Prob(7, 7); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(7,7) = %f, want 0.25", got)
	}
	if got := p.SupportSize(); got != 2 {
		t.Errorf("support = %d, want 2", got)
	}
}

func TestSparseFallback(t *testing.T) {
	p := New(16, 16) // 32 bits total → sparse
	p.Add(60000, 123, 1)
	p.Add(1, 2, 3)
	p.Normalize()
	if math.Abs(p.Prob(60000, 123)-0.25) > 1e-12 {
		t.Errorf("sparse P = %f", p.Prob(60000, 123))
	}
	if p.SupportSize() != 2 {
		t.Errorf("support = %d", p.SupportSize())
	}
}

func TestForEachConservesMass(t *testing.T) {
	for _, widths := range [][2]int{{8, 8}, {16, 16}} {
		p := New(widths[0], widths[1])
		p.Add(1, 1, 0.5)
		p.Add(2, 3, 1.5)
		p.Add(0, 0, 2.0)
		var sum float64
		p.ForEach(func(a, b uint64, w float64) { sum += w })
		if math.Abs(sum-4.0) > 1e-12 {
			t.Errorf("widths %v: ForEach mass %f, want 4", widths, sum)
		}
	}
}

func TestUniform(t *testing.T) {
	p := Uniform(4, 4)
	if math.Abs(p.Total()-1) > 1e-9 {
		t.Errorf("uniform total = %f", p.Total())
	}
	want := 1.0 / 256
	if math.Abs(p.Prob(9, 12)-want) > 1e-15 {
		t.Errorf("P = %g, want %g", p.Prob(9, 12), want)
	}
}

func TestDownsample(t *testing.T) {
	p := New(8, 8)
	p.Add(0, 0, 1)     // bucket (0,0)
	p.Add(255, 255, 1) // bucket (bins-1, bins-1)
	g := p.Downsample(4)
	if g[0][0] != 1 || g[3][3] != 1 {
		t.Errorf("downsample corners wrong: %v", g)
	}
}

// Property: normalization always yields total mass 1 for non-empty PMFs,
// and probabilities stay proportional.
func TestQuickNormalize(t *testing.T) {
	f := func(pairs [][2]uint8, weights []uint8) bool {
		if len(pairs) == 0 {
			return true
		}
		p := New(8, 8)
		any := false
		for i, pr := range pairs {
			w := 1.0
			if i < len(weights) {
				w = float64(weights[i]%16) + 0.5
			}
			p.Add(uint64(pr[0]), uint64(pr[1]), w)
			any = true
		}
		if !any {
			return true
		}
		p.Normalize()
		return math.Abs(p.Total()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
