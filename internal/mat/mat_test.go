package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Transpose and products that build and check the test systems.

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			t.Data[j*t.C+i] = m.Data[i*m.C+j]
		}
	}
	return t
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.C {
		panic("mat: MulVec dimension mismatch")
	}
	y := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.C != b.R {
		panic("mat: Mul dimension mismatch")
	}
	out := New(m.R, b.C)
	for i := 0; i < m.R; i++ {
		for k := 0; k < m.C; k++ {
			a := m.Data[i*m.C+k]
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.C : (k+1)*b.C]
			orow := out.Data[i*out.C : (i+1)*out.C]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

func TestSolveLUKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLU(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLU(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Error("expected singular error")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		// SPD matrix: BᵀB + I.
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.T().Mul(b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		// L·Lᵀ == A.
		rec := l.Mul(l.T())
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9 {
				t.Fatalf("trial %d: reconstruction off by %g", trial, rec.Data[i]-a.Data[i])
			}
		}
		// Solve agrees with LU.
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x1 := SolveCholesky(l, rhs)
		x2, err := SolveLU(a, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8 {
				t.Fatalf("cholesky vs LU: %v vs %v", x1, x2)
			}
		}
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	g := x.Gram()
	want := x.T().Mul(x)
	for i := range g.Data {
		if math.Abs(g.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("gram mismatch at %d", i)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("y = %v", y)
			break
		}
	}
}

// Property: SolveLU actually solves random well-conditioned systems.
func TestQuickSolveLU(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Error("norm wrong")
	}
	dst := []float64{1, 1}
	AddScaled(dst, 2, []float64{1, 2})
	if dst[0] != 3 || dst[1] != 5 {
		t.Errorf("AddScaled = %v", dst)
	}
}
