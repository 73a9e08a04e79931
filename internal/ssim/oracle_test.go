package ssim

import (
	"math"
	"math/rand"
	"testing"

	"autoax/internal/imagedata"
)

// oracleSSIM is SSIM exactly as it stood before the integral tables were
// pooled: five freshly allocated tables per call.  Nothing outside this
// file may call it.
func oracleSSIM(a, b *imagedata.Image) float64 {
	w, h := a.W, a.H
	tw := w + 1
	sa := make([]float64, (w+1)*(h+1))
	sb := make([]float64, (w+1)*(h+1))
	saa := make([]float64, (w+1)*(h+1))
	sbb := make([]float64, (w+1)*(h+1))
	sab := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowA, rowB, rowAA, rowBB, rowAB := 0.0, 0.0, 0.0, 0.0, 0.0
		for x := 0; x < w; x++ {
			va := float64(a.Pix[y*w+x])
			vb := float64(b.Pix[y*w+x])
			rowA += va
			rowB += vb
			rowAA += va * va
			rowBB += vb * vb
			rowAB += va * vb
			i := (y+1)*tw + (x + 1)
			up := y*tw + (x + 1)
			sa[i] = sa[up] + rowA
			sb[i] = sb[up] + rowB
			saa[i] = saa[up] + rowAA
			sbb[i] = sbb[up] + rowBB
			sab[i] = sab[up] + rowAB
		}
	}
	window := func(t []float64, x0, y0, x1, y1 int) float64 {
		return t[y1*tw+x1] - t[y0*tw+x1] - t[y1*tw+x0] + t[y0*tw+x0]
	}
	n := float64(WindowSize * WindowSize)
	var total float64
	var count int
	for y := 0; y+WindowSize <= h; y++ {
		for x := 0; x+WindowSize <= w; x++ {
			x1, y1 := x+WindowSize, y+WindowSize
			ma := window(sa, x, y, x1, y1) / n
			mb := window(sb, x, y, x1, y1) / n
			va := window(saa, x, y, x1, y1)/n - ma*ma
			vb := window(sbb, x, y, x1, y1)/n - mb*mb
			cov := window(sab, x, y, x1, y1)/n - ma*mb
			num := (2*ma*mb + c1) * (2*cov + c2)
			den := (ma*ma + mb*mb + c1) * (va + vb + c2)
			total += num / den
			count++
		}
	}
	return total / float64(count)
}

// TestSSIMOracle compares the pooled SSIM with the allocate-per-call
// oracle bit for bit, over odd and even sizes in an order that reuses
// the pooled tables across growing and shrinking images.
func TestSSIMOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := WindowSize+rng.Intn(70), WindowSize+rng.Intn(50)
		a := imagedata.Synthetic(w, h, seed)
		b := a.Clone()
		amp := 1 + rng.Intn(128)
		for i := range b.Pix {
			if rng.Intn(3) == 0 {
				b.Pix[i] = uint8(max(0, min(255, int(b.Pix[i])+rng.Intn(2*amp+1)-amp)))
			}
		}
		got, want := SSIM(a, b), oracleSSIM(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("repro: go test ./internal/ssim -run TestSSIMOracle (seed %d, %dx%d): SSIM %v, oracle %v", seed, w, h, got, want)
		}
	}
}
