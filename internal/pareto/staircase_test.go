package pareto

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refArchive is the pre-staircase linear-scan archive: insertion order
// with compacting evictions, first-inserted wins ties.  The staircase
// implementation must stay decision- and content-equivalent to it.
type refArchive struct {
	pts      []Point
	payloads []int
}

func (a *refArchive) covered(p Point) bool {
	for _, q := range a.pts {
		if Dominates(q, p) || refEqual(q, p) {
			return true
		}
	}
	return false
}

func (a *refArchive) insert(p Point, payload int) bool {
	if a.covered(p) {
		return false
	}
	keep := 0
	for i := range a.pts {
		if !Dominates(p, a.pts[i]) {
			a.pts[keep] = a.pts[i]
			a.payloads[keep] = a.payloads[i]
			keep++
		}
	}
	a.pts = a.pts[:keep]
	a.payloads = a.payloads[:keep]
	a.pts = append(a.pts, append(Point(nil), p...))
	a.payloads = append(a.payloads, payload)
	return true
}

func refEqual(a, b Point) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randPoint draws coordinates from a small integer grid so duplicates,
// shared coordinates and exact staircase corners all occur frequently.
func randPoint(rng *rand.Rand, dim, grid int) Point {
	p := make(Point, dim)
	for i := range p {
		p[i] = float64(rng.Intn(grid))
	}
	return p
}

// TestArchiveMatchesReference drives the staircase archive and the linear
// reference with identical random streams and checks every Insert/Covered
// decision, the archived content, and the insertion-order view.
func TestArchiveMatchesReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		grid := 3 + rng.Intn(12)
		a := &Archive[int]{}
		ref := &refArchive{}
		for i := 0; i < 400; i++ {
			p := randPoint(rng, 2, grid)
			if got, want := a.Covered(p), ref.covered(p); got != want {
				t.Fatalf("trial=%d step=%d: Covered(%v)=%v, reference %v", trial, i, p, got, want)
			}
			got := a.Insert(p, i)
			want := ref.insert(p, i)
			if got != want {
				t.Fatalf("trial=%d step=%d: Insert(%v)=%v, reference %v", trial, i, p, got, want)
			}
			checkArchiveEqual(t, a, ref)
		}
	}
}

// TestArchiveRejectsOtherDims pins that the archive refuses any point
// without exactly two objectives, naming the length it got.
func TestArchiveRejectsOtherDims(t *testing.T) {
	for _, dim := range []int{0, 1, 3} {
		for name, call := range map[string]func(*Archive[int], Point){
			"Insert":  func(a *Archive[int], p Point) { a.Insert(p, 0) },
			"Covered": func(a *Archive[int], p Point) { a.Covered(p) },
		} {
			a := &Archive[int]{}
			a.Insert(Point{1, 1}, 1)
			func() {
				defer func() {
					want := fmt.Sprintf("length %d", dim)
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Errorf("%s of a %d-objective point: panic %q, want one naming %q", name, dim, msg, want)
					}
				}()
				call(a, make(Point, dim))
			}()
			if a.Len() != 1 {
				t.Errorf("%s of a %d-objective point changed the archive: %v", name, dim, a.Points())
			}
		}
	}
}

// checkArchiveEqual asserts set-equality of (point, payload) pairs, the
// staircase ordering invariant, and that InsertionOrder reproduces the
// reference's storage order exactly.
func checkArchiveEqual(t *testing.T, a *Archive[int], ref *refArchive) {
	t.Helper()
	if a.Len() != len(ref.pts) {
		t.Fatalf("size %d, reference %d", a.Len(), len(ref.pts))
	}
	key := func(p Point, id int) string {
		return fmt.Sprintf("%v|%d", p, id)
	}
	got := map[string]bool{}
	for i := range a.Points() {
		got[key(a.Points()[i], a.Payloads()[i])] = true
	}
	for i := range ref.pts {
		if !got[key(ref.pts[i], ref.payloads[i])] {
			t.Fatalf("reference entry %v/%d missing from archive", ref.pts[i], ref.payloads[i])
		}
	}
	pts := a.Points()
	for i := 1; i < len(pts); i++ {
		if !(pts[i-1][0] < pts[i][0]) || !(pts[i-1][1] > pts[i][1]) {
			t.Fatalf("staircase invariant violated at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
	order := a.InsertionOrder(nil)
	if len(order) != len(ref.payloads) {
		t.Fatalf("InsertionOrder length %d, want %d", len(order), len(ref.payloads))
	}
	for i, idx := range order {
		if a.Payloads()[idx] != ref.payloads[i] {
			t.Fatalf("InsertionOrder[%d] payload %d, reference order has %d", i, a.Payloads()[idx], ref.payloads[i])
		}
	}
}

// TestFrontMatchesQuadratic cross-checks the sort-based 2-D Front against
// the quadratic reference on random streams with duplicates.
func TestFrontMatchesQuadratic(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		grid := 2 + rng.Intn(10)
		n := rng.Intn(120)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(rng, 2, grid)
		}
		got := Front(pts)
		want := quadraticFront(pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Front returned %v, reference %v (pts %v)", trial, got, want, pts)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Front returned %v, reference %v", trial, got, want)
			}
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("trial %d: Front indices not ascending: %v", trial, got)
		}
	}
}

// quadraticFront is the historical O(n²) reference.
func quadraticFront(pts []Point) []int {
	var idx []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if Dominates(q, p) || (refEqual(p, q) && j < i) {
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

// TestArchiveFloatCoords exercises the staircase with continuous
// coordinates (no grid), including negative values.
func TestArchiveFloatCoords(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 999)))
		a := &Archive[int]{}
		ref := &refArchive{}
		for i := 0; i < 300; i++ {
			p := Point{rng.NormFloat64(), rng.NormFloat64()}
			if got, want := a.Insert(p, i), ref.insert(p, i); got != want {
				t.Fatalf("trial=%d step=%d: Insert=%v, reference %v", trial, i, got, want)
			}
		}
		checkArchiveEqual(t, a, ref)
	}
}
