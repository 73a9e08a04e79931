// Package pareto provides multi-objective dominance utilities: archives of
// non-dominated solutions (the paper's ParetoInsert), front-to-front
// distance metrics (Table 4) and hypervolume.
//
// All objectives are minimized; callers maximizing a quantity (SSIM)
// negate it.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Point is a vector of objective values, all minimized.
type Point []float64

// Dominates reports whether a Pareto-dominates b: no worse in every
// objective and strictly better in at least one.
func Dominates(a, b Point) bool {
	strictly := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			strictly = true
		}
	}
	return strictly
}

// Archive maintains a set of mutually non-dominated two-objective points
// with attached payloads: the pseudo-Pareto set of the paper's Algorithm 1,
// over (−QoR, hw).  The zero value is ready to use.
//
// The points are kept on a staircase: Points() is sorted ascending by the
// first objective, which — because no two archived points can share a
// first objective without one dominating the other — makes the second
// objective strictly descending.  Covered is then one binary search plus
// one comparison, and Insert evicts a single contiguous dominated run.
// Callers needing the insertion order (e.g. to reproduce a random draw
// sequence that predates the staircase) use InsertionOrder.
type Archive[T any] struct {
	pts      []Point
	payloads []T
	seqs     []int64 // per-entry insertion counter, parallel to pts
	nextSeq  int64
}

// Len returns the archive size.
func (a *Archive[T]) Len() int { return len(a.pts) }

// Points returns the archived objective vectors (shared storage), sorted
// ascending by the first objective (descending by the second).  See the
// Archive doc comment.
func (a *Archive[T]) Points() []Point { return a.pts }

// Payloads returns the archived payloads (shared storage), ordered
// parallel to Points.
func (a *Archive[T]) Payloads() []T { return a.payloads }

// InsertionOrder appends to dst[:0] the current archive indices ordered by
// insertion time (oldest surviving member first) and returns the slice:
// the order the historical linear archive kept, which Algorithm 1's
// restart draw depends on for reproducibility.
func (a *Archive[T]) InsertionOrder(dst []int) []int {
	dst = dst[:0]
	for i := range a.pts {
		dst = append(dst, i)
	}
	sort.Slice(dst, func(x, y int) bool { return a.seqs[dst[x]] < a.seqs[dst[y]] })
	return dst
}

// Covered reports whether an archived point dominates or equals p — i.e.
// whether Insert(p, …) would reject it.  It lets hot enumeration loops
// defer building an expensive payload (such as copying a configuration)
// until the point is known to be accepted.  The only archived point that
// can dominate or equal p is the rightmost one with first objective ≤ p[0]
// (everything left of it has a strictly larger second objective, everything
// right of it a strictly larger first objective), so this costs one binary
// search.  It panics unless p has two objectives.
func (a *Archive[T]) Covered(p Point) bool {
	if len(p) != 2 {
		panic(fmt.Sprintf("pareto: Archive holds two objectives, got a point of length %d", len(p)))
	}
	j := sort.Search(len(a.pts), func(i int) bool { return a.pts[i][0] > p[0] }) - 1
	return j >= 0 && a.pts[j][1] <= p[1]
}

// Insert adds (p, payload) if no archived point dominates or equals p,
// evicting archived points p dominates.  It reports whether the point was
// inserted — the accept test of the paper's Algorithm 1.  Equal-point ties
// keep the first-inserted payload.  The run of points p dominates is
// contiguous: it starts at the first archived point with first objective
// ≥ p[0] and extends while the (descending) second objective stays ≥ p[1].
// It panics unless p has two objectives.
func (a *Archive[T]) Insert(p Point, payload T) bool {
	if a.Covered(p) {
		return false
	}
	lo := sort.Search(len(a.pts), func(i int) bool { return a.pts[i][0] >= p[0] })
	hi := lo + sort.Search(len(a.pts)-lo, func(i int) bool { return a.pts[lo+i][1] < p[1] })
	np := Point{p[0], p[1]}
	seq := a.nextSeq
	a.nextSeq++
	if hi == lo { // nothing evicted: open a slot at lo
		a.pts = append(a.pts, nil)
		copy(a.pts[lo+1:], a.pts[lo:])
		a.pts[lo] = np
		var zero T
		a.payloads = append(a.payloads, zero)
		copy(a.payloads[lo+1:], a.payloads[lo:])
		a.payloads[lo] = payload
		a.seqs = append(a.seqs, 0)
		copy(a.seqs[lo+1:], a.seqs[lo:])
		a.seqs[lo] = seq
		return true
	}
	// Replace the evicted run [lo, hi) with the single new entry.
	a.pts[lo] = np
	a.payloads[lo] = payload
	a.seqs[lo] = seq
	if hi > lo+1 {
		a.pts = append(a.pts[:lo+1], a.pts[hi:]...)
		a.payloads = append(a.payloads[:lo+1], a.payloads[hi:]...)
		a.seqs = append(a.seqs[:lo+1], a.seqs[hi:]...)
	}
	return true
}

func equal(a, b Point) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Front extracts the non-dominated subset of pts, returning their indices
// in the input slice (ascending).  Duplicate points keep only the earliest
// index.  Two-objective inputs take an O(n log n) sort-and-sweep path;
// other dimensionalities use the quadratic reference scan.
func Front(pts []Point) []int {
	if len(pts) > 0 && len(pts[0]) == 2 {
		return front2(pts)
	}
	var idx []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if Dominates(q, p) || (equal(p, q) && j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			idx = append(idx, i)
		}
	}
	return idx
}

// front2 is Front for two objectives: sweep the points in (first objective,
// second objective, index) order keeping every strict improvement of the
// second objective.  The index tie-break reproduces the quadratic path's
// duplicate handling: among equal points only the earliest survives, and a
// point matching the best second objective at a larger first objective is
// dominated.
func front2(pts []Point) []int {
	ord := make([]int, len(pts))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(x, y int) bool {
		a, b := pts[ord[x]], pts[ord[y]]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return ord[x] < ord[y]
	})
	var idx []int
	best := math.Inf(1)
	for _, i := range ord {
		if pts[i][1] < best {
			idx = append(idx, i)
			best = pts[i][1]
		}
	}
	sort.Ints(idx)
	return idx
}

// Normalizer rescales points to [0,1] per objective using joint min/max
// bounds, as the paper does before measuring front distances.
type Normalizer struct {
	Lo, Hi Point
}

// NewNormalizer computes bounds over all given point sets.
func NewNormalizer(sets ...[]Point) *Normalizer {
	var lo, hi Point
	for _, set := range sets {
		for _, p := range set {
			if lo == nil {
				lo = append(Point(nil), p...)
				hi = append(Point(nil), p...)
				continue
			}
			for i, v := range p {
				lo[i] = math.Min(lo[i], v)
				hi[i] = math.Max(hi[i], v)
			}
		}
	}
	return &Normalizer{Lo: lo, Hi: hi}
}

// Apply returns the normalized copy of p.
func (n *Normalizer) Apply(p Point) Point {
	q := make(Point, len(p))
	for i, v := range p {
		span := n.Hi[i] - n.Lo[i]
		if span == 0 {
			q[i] = 0
		} else {
			q[i] = (v - n.Lo[i]) / span
		}
	}
	return q
}

func dist(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Distances summarizes how far set S sits from reference front P after
// joint [0,1] normalization (Table 4):
//
//	ToAvg/ToMax     — avg/max over s∈S of the distance to the nearest p∈P
//	FromAvg/FromMax — avg/max over p∈P of the distance to the nearest s∈S
//
// "To" measures how close found solutions are to optimal ones; "From"
// measures how much of the optimal front was missed.
type Distances struct {
	ToAvg, ToMax, FromAvg, FromMax float64
}

// FrontDistances computes Distances between solution set s and reference
// front p.
func FrontDistances(s, p []Point) Distances {
	n := NewNormalizer(s, p)
	ns := make([]Point, len(s))
	for i, q := range s {
		ns[i] = n.Apply(q)
	}
	np := make([]Point, len(p))
	for i, q := range p {
		np[i] = n.Apply(q)
	}
	var d Distances
	d.ToAvg, d.ToMax = directed(ns, np)
	d.FromAvg, d.FromMax = directed(np, ns)
	return d
}

func directed(from, to []Point) (avg, max float64) {
	if len(from) == 0 || len(to) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, f := range from {
		best := math.Inf(1)
		for _, t := range to {
			if d := dist(f, t); d < best {
				best = d
			}
		}
		sum += best
		if best > max {
			max = best
		}
	}
	return sum / float64(len(from)), max
}

// Hypervolume2D returns the area dominated by the front (2-objective,
// minimization) up to the reference point ref.  Points beyond ref
// contribute nothing.
func Hypervolume2D(front []Point, ref Point) float64 {
	pts := make([]Point, 0, len(front))
	for _, p := range front {
		if p[0] < ref[0] && p[1] < ref[1] {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	hv := 0.0
	prevY := ref[1]
	for _, p := range pts {
		if p[1] < prevY {
			hv += (ref[0] - p[0]) * (prevY - p[1])
			prevY = p[1]
		}
	}
	return hv
}
