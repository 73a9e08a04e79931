// Package ssim implements the structural similarity index, the quality-of-
// result metric of all three autoAx case studies.
//
// The implementation follows Wang et al. with uniform 8×8 windows at unit
// stride, computed in O(1) per window via integral images so that precise
// QoR evaluation of thousands of candidate accelerators stays cheap.
package ssim

import (
	"sync"

	"autoax/internal/imagedata"
)

const (
	// WindowSize is the local statistics window (8×8, uniform weights).
	WindowSize = 8
	l          = 255.0
	k1         = 0.01
	k2         = 0.03
	c1         = (k1 * l) * (k1 * l)
	c2         = (k2 * l) * (k2 * l)
)

// integrals holds running sums for O(1) window statistics.  The sums are
// of 8-bit pixels and their products, so every entry is an integer well
// inside float64's exact range.
type integrals struct {
	w, h int
	sa   []float64 // Σ a
	sb   []float64 // Σ b
	saa  []float64 // Σ a²
	sbb  []float64 // Σ b²
	sab  []float64 // Σ ab
	buf  []float64 // backing array of the five tables
}

// integralsPool recycles the tables between SSIM calls; precise
// evaluation scores every (simulation, image) pair of every configuration.
var integralsPool = sync.Pool{New: func() any { return new(integrals) }}

// buildIntegrals fills in, a pooled value, with the running sums of a and
// b.  Only row 0 and column 0 are read before they are written, so only
// they are cleared.
func buildIntegrals(in *integrals, a, b *imagedata.Image) {
	w, h := a.W, a.H
	in.w, in.h = w+1, h+1
	size := in.w * in.h
	if cap(in.buf) < 5*size {
		in.buf = make([]float64, 5*size)
	}
	in.buf = in.buf[:5*size]
	in.sa, in.sb, in.saa, in.sbb, in.sab = in.buf[:size], in.buf[size:2*size],
		in.buf[2*size:3*size], in.buf[3*size:4*size], in.buf[4*size:]
	for _, t := range [...][]float64{in.sa, in.sb, in.saa, in.sbb, in.sab} {
		clear(t[:in.w])
		for y := 1; y < in.h; y++ {
			t[y*in.w] = 0
		}
	}
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
			i := (y+1)*in.w + (x + 1)
			up := y*in.w + (x + 1)
			in.sa[i] = in.sa[up] + rowA
			in.sb[i] = in.sb[up] + rowB
			in.saa[i] = in.saa[up] + rowAA
			in.sbb[i] = in.sbb[up] + rowBB
			in.sab[i] = in.sab[up] + rowAB
		}
	}
}

func (in *integrals) window(t []float64, x0, y0, x1, y1 int) float64 {
	return t[y1*in.w+x1] - t[y0*in.w+x1] - t[y1*in.w+x0] + t[y0*in.w+x0]
}

// SSIM returns the mean structural similarity between two equally sized
// images.  It is 1 for identical images and decreases toward (and possibly
// below) 0 as structure diverges.  It panics on a size mismatch, which is
// always a programming error in this codebase.
func SSIM(a, b *imagedata.Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("ssim: image size mismatch")
	}
	if a.W < WindowSize || a.H < WindowSize {
		panic("ssim: image smaller than the SSIM window")
	}
	in := integralsPool.Get().(*integrals)
	defer integralsPool.Put(in)
	buildIntegrals(in, a, b)
	n := float64(WindowSize * WindowSize)
	var total float64
	var count int
	for y := 0; y+WindowSize <= a.H; y++ {
		for x := 0; x+WindowSize <= a.W; x++ {
			x1, y1 := x+WindowSize, y+WindowSize
			sa := in.window(in.sa, x, y, x1, y1)
			sb := in.window(in.sb, x, y, x1, y1)
			saa := in.window(in.saa, x, y, x1, y1)
			sbb := in.window(in.sbb, x, y, x1, y1)
			sab := in.window(in.sab, x, y, x1, y1)
			ma := sa / n
			mb := sb / n
			va := saa/n - ma*ma
			vb := sbb/n - mb*mb
			cov := sab/n - ma*mb
			num := (2*ma*mb + c1) * (2*cov + c2)
			den := (ma*ma + mb*mb + c1) * (va + vb + c2)
			total += num / den
			count++
		}
	}
	return total / float64(count)
}
