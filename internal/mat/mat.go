// Package mat provides the small dense linear-algebra kernels the ml
// package is built on: row-major matrices, LU and Cholesky solves, and a
// few BLAS-1/2 helpers.  Everything is plain float64 with no external
// dependencies; sizes in this project stay in the low thousands.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	R, C int
	Data []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (which must share a length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.C {
			panic(fmt.Sprintf("mat: ragged row %d (%d vs %d)", i, len(r), m.C))
		}
		copy(m.Data[i*m.C:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.R, m.C)
	copy(c.Data, m.Data)
	return c
}

// Gram returns XᵀX for X = m (C×C, symmetric positive semidefinite).
func (m *Matrix) Gram() *Matrix {
	g := New(m.C, m.C)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for a := 0; a < m.C; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			grow := g.Data[a*g.C:]
			for b := a; b < m.C; b++ {
				grow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < g.R; a++ {
		for b := 0; b < a; b++ {
			g.Data[a*g.C+b] = g.Data[b*g.C+a]
		}
	}
	return g
}

// ErrSingular is returned when a solve encounters a (near-)singular matrix.
var ErrSingular = errors.New("mat: singular matrix")

// SolveLU solves A·x = b by Gaussian elimination with partial pivoting.
// A and b are not modified.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	if a.R != a.C || a.R != len(b) {
		return nil, fmt.Errorf("mat: SolveLU shape %dx%d vs %d", a.R, a.C, len(b))
	}
	n := a.R
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				m.Data[p*n+j], m.Data[col*n+j] = m.Data[col*n+j], m.Data[p*n+j]
			}
			x[p], x[col] = x[col], x[p]
		}
		piv := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / piv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// Cholesky returns the lower-triangular L with L·Lᵀ = a for symmetric
// positive definite a.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.R != a.C {
		return nil, fmt.Errorf("mat: Cholesky of %dx%d", a.R, a.C)
	}
	n := a.R
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.R
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// Dot returns the inner product of two equally long vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// AddScaled computes dst += s·src in place.
func AddScaled(dst []float64, s float64, src []float64) {
	for i, v := range src {
		dst[i] += s * v
	}
}
