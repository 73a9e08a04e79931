// Package apps defines the three autoAx case studies exactly as laid out
// by the paper's Figure 2 and Table 1:
//
//   - Sobel ED: vertical-edge Sobel detector — 2× 8-bit adders, 2× 9-bit
//     adders, 1× 10-bit subtractor (plus free shifts, |·| and saturation);
//   - Fixed GF: 3×3 Gaussian filter, σ = 2, with multiplierless constant
//     multiplication (SPIRAL substitute) — 4× 8-bit, 2× 9-bit and 4× 16-bit
//     adders plus 1× 16-bit subtractor;
//   - Generic GF: 3×3 convolution with runtime coefficients — 9× 8-bit
//     multipliers and 8× 16-bit adders, evaluated over a family of Gaussian
//     kernels (σ ∈ [0.3, 0.8]) whose quantized weights sum to 256.
package apps

import (
	"fmt"
	"math"

	"autoax/internal/accel"
)

// tap returns the window tap for kernel row r, column c (0-based).
func tap(r, c int) accel.WindowTap { return accel.WindowTap{DX: c - 1, DY: r - 1} }

// Sobel returns the vertical-edge Sobel detector (Figure 2a):
// Gx = (p02 + 2·p12 + p22) − (p00 + 2·p10 + p20), output |Gx| saturated
// to 8 bits.
func Sobel() *accel.ImageApp {
	g := accel.NewGraph("sobel")
	p02 := g.Input("p02", 8)
	p12 := g.Input("p12", 8)
	p22 := g.Input("p22", 8)
	p00 := g.Input("p00", 8)
	p10 := g.Input("p10", 8)
	p20 := g.Input("p20", 8)

	add1 := g.Add("add1", 8, p02, p22)                       // 9-bit result
	add2 := g.Add("add2", 9, add1, g.ShiftL("p12s", p12, 1)) // 10-bit
	add3 := g.Add("add3", 8, p00, p20)
	add4 := g.Add("add4", 9, add3, g.ShiftL("p10s", p10, 1))
	sub := g.Sub("sub", 10, add2, add4) // 11-bit two's complement
	abs := g.Abs("abs", sub)
	g.Output(g.Clamp("sat", abs, 8))

	return &accel.ImageApp{
		Name:  "sobel",
		Graph: g,
		Taps: []accel.WindowTap{
			tap(0, 2), tap(1, 2), tap(2, 2), // p02, p12, p22
			tap(0, 0), tap(1, 0), tap(2, 0), // p00, p10, p20
		},
		Sims: [][]uint64{{}},
	}
}

// FixedGFKernel is the quantized σ=2 kernel (corner, edge, center weights
// summing to 256): y = (26·Sc + 30·Se + 32·p11) >> 8.
var FixedGFKernel = [3]uint64{26, 30, 32}

// FixedGF returns the fixed-coefficient Gaussian filter (Figure 2b).  The
// constant multiplications are decomposed into shift-add networks
// (26 = 16+8+2, 30 = 32−2, 32 = shift), yielding exactly the operation mix
// of Table 1.
func FixedGF() *accel.ImageApp {
	g := accel.NewGraph("fixedgf")
	p := make([][3]int, 3)
	var taps []accel.WindowTap
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			p[r][c] = g.Input(fmt.Sprintf("p%d%d", r, c), 8)
			taps = append(taps, tap(r, c))
		}
	}
	// Symmetric pixel groups.
	add1 := g.Add("add1", 8, p[0][0], p[0][2]) // top corners → 9b
	add2 := g.Add("add2", 8, p[2][0], p[2][2]) // bottom corners → 9b
	sc := g.Add("add3", 9, add1, add2)         // corner sum → 10b
	add4 := g.Add("add4", 8, p[0][1], p[2][1]) // vertical edges → 9b
	add5 := g.Add("add5", 8, p[1][0], p[1][2]) // horizontal edges → 9b
	se := g.Add("add6", 9, add4, add5)         // edge sum → 10b

	// 26·Sc = (Sc<<4) + (Sc<<3) + (Sc<<1); max 26·1020 < 2^15.
	t1 := g.Add("add7", 16, g.ShiftL("sc16", sc, 4), g.ShiftL("sc8", sc, 3))
	t2 := g.Add("add8", 16, g.Trunc("t1w", t1, 15), g.ShiftL("sc2", sc, 1))
	cSc := g.Trunc("cscw", t2, 15)
	// 30·Se = (Se<<5) − (Se<<1); non-negative, max 30·1020 < 2^15.
	s1 := g.Sub("sub1", 16, g.ShiftL("se32", se, 5), g.ShiftL("se2", se, 1))
	cSe := g.Trunc("csew", s1, 15)
	// Accumulate: 26·Sc + 30·Se + 32·p11; max 65280 < 2^16.
	t3 := g.Add("add9", 16, cSc, cSe)
	t4 := g.Add("add10", 16, g.Trunc("t3w", t3, 16), g.ShiftL("c32", p[1][1], 5))
	g.Output(g.ShiftR("out", g.Trunc("t4w", t4, 16), 8))

	return &accel.ImageApp{Name: "fixedgf", Graph: g, Taps: taps, Sims: [][]uint64{{}}}
}

// GaussianKernel3x3 quantizes the 3×3 Gaussian with the given σ to integer
// weights summing to 256, returned in row-major order.
func GaussianKernel3x3(sigma float64) [9]uint64 {
	var w [9]float64
	sum := 0.0
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			d2 := float64((r-1)*(r-1) + (c-1)*(c-1))
			w[r*3+c] = math.Exp(-d2 / (2 * sigma * sigma))
			sum += w[r*3+c]
		}
	}
	var q [9]uint64
	total := uint64(0)
	for i := range w {
		q[i] = uint64(math.Round(256 * w[i] / sum))
		total += q[i]
	}
	// Fix rounding drift on the centre weight, keeping every weight ≤ 255.
	centre := int64(q[4]) + (256 - int64(total))
	if centre > 255 {
		// Push the excess onto the four edge weights.
		excess := centre - 255
		centre = 255
		for _, i := range []int{1, 3, 5, 7} {
			if excess == 0 {
				break
			}
			q[i]++
			excess--
		}
	}
	if centre < 0 {
		centre = 0
	}
	q[4] = uint64(centre)
	return q
}

// GenericGFKernels returns n Gaussian kernels with σ spread uniformly over
// [0.3, 0.8] — the paper's 50-kernel QoR workload.
func GenericGFKernels(n int) [][]uint64 {
	ks := make([][]uint64, n)
	for i := range ks {
		sigma := 0.3
		if n > 1 {
			sigma += 0.5 * float64(i) / float64(n-1)
		}
		k := GaussianKernel3x3(sigma)
		ks[i] = append([]uint64(nil), k[:]...)
	}
	return ks
}

// GenericGF returns the generic (variable-coefficient) Gaussian filter:
// nine 8-bit multipliers feeding a balanced tree of eight 16-bit adders;
// y = (Σ c_i·p_i) >> 8 with Σ c_i = 256.  kernels supplies the simulation
// workload (use GenericGFKernels).
func GenericGF(kernels [][]uint64) *accel.ImageApp {
	g := accel.NewGraph("genericgf")
	var taps []accel.WindowTap
	pix := make([]int, 9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			pix[r*3+c] = g.Input(fmt.Sprintf("p%d%d", r, c), 8)
			taps = append(taps, tap(r, c))
		}
	}
	coef := make([]int, 9)
	for i := range coef {
		coef[i] = g.Input(fmt.Sprintf("c%d", i), 8)
	}
	m := make([]int, 9)
	for i := range m {
		m[i] = g.Mul(fmt.Sprintf("mul%d", i), 8, pix[i], coef[i])
	}
	t := func(id int) int { return g.Trunc(fmt.Sprintf("w%d", id), id, 16) }
	a1 := g.Add("add1", 16, m[0], m[1])
	a2 := g.Add("add2", 16, m[2], m[3])
	a3 := g.Add("add3", 16, m[4], m[5])
	a4 := g.Add("add4", 16, m[6], m[7])
	a5 := g.Add("add5", 16, t(a1), t(a2))
	a6 := g.Add("add6", 16, t(a3), t(a4))
	a7 := g.Add("add7", 16, t(a5), t(a6))
	a8 := g.Add("add8", 16, t(a7), m[8])
	g.Output(g.ShiftR("out", g.Trunc("a8w", a8, 16), 8))

	return &accel.ImageApp{Name: "genericgf", Graph: g, Taps: taps, Sims: kernels}
}

// Names lists the case studies New builds, in paper order.
func Names() []string { return []string{"sobel", "fixedgf", "genericgf"} }

// New builds the case study called name (one of Names).  kernels is the
// generic Gaussian filter's coefficient-set count (GenericGFKernels); the
// other case studies ignore it.
func New(name string, kernels int) (*accel.ImageApp, error) {
	switch name {
	case "sobel":
		return Sobel(), nil
	case "fixedgf":
		return FixedGF(), nil
	case "genericgf":
		return GenericGF(GenericGFKernels(kernels)), nil
	}
	return nil, fmt.Errorf("unknown app %q (want sobel, fixedgf or genericgf)", name)
}
