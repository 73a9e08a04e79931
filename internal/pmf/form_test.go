package pmf_test

import (
	"math"
	"math/rand"
	"testing"

	"autoax/internal/acl"
	"autoax/internal/pmf"
)

// observe fills a dense and a sparse PMF with the same weighted operand
// observations — repeats included, as a profile produces — and normalizes
// both.
func observe(wa, wb int, seed int64, n int) (dense, sparse *pmf.PMF) {
	dense, sparse = pmf.NewForm(wa, wb, true), pmf.NewForm(wa, wb, false)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// A narrow band of operands makes repeated pairs common.
		a := uint64(rng.Intn(1<<uint(wa))) &^ 7
		b := uint64(rng.Intn(1<<uint(wb))) &^ 7
		w := float64(1 + rng.Intn(3))
		dense.Add(a, b, w)
		sparse.Add(a, b, w)
	}
	dense.Normalize()
	sparse.Normalize()
	return dense, sparse
}

type pair struct {
	a, b uint64
	w    uint64 // float bits
}

func visit(p *pmf.PMF) []pair {
	var out []pair
	p.ForEach(func(a, b uint64, w float64) {
		out = append(out, pair{a, b, math.Float64bits(w)})
	})
	return out
}

// TestSparseDenseForEachOracle pins that both storage forms of the same
// observations visit the same pairs, in operand order, with bit-identical
// weights.
func TestSparseDenseForEachOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		wa, wb := 6+int(seed)%4, 7+int(seed)%3
		dense, sparse := observe(wa, wb, seed, 3000)
		dv, sv := visit(dense), visit(sparse)
		if len(dv) != len(sv) {
			t.Fatalf("seed %d: dense visits %d pairs, sparse %d", seed, len(dv), len(sv))
		}
		for i := range dv {
			if dv[i] != sv[i] {
				t.Fatalf("seed %d: visit %d dense %+v, sparse %+v", seed, i, dv[i], sv[i])
			}
			if i > 0 && (dv[i].a < dv[i-1].a || dv[i].a == dv[i-1].a && dv[i].b <= dv[i-1].b) {
				t.Fatalf("seed %d: visit %d out of operand order", seed, i)
			}
		}
	}
}

// TestSparseDenseWMEDOracle pins that ScoreWMED gives bit-identical WMEDs
// whichever form holds the operand distribution, for an op New stores
// densely (add8) and ones it stores sparsely (add9, sub10).
func TestSparseDenseWMEDOracle(t *testing.T) {
	ops := []acl.Op{{Kind: acl.Add, Width: 8}, {Kind: acl.Add, Width: 9}, {Kind: acl.Sub, Width: 10}}
	var specs []acl.BuildSpec
	for _, op := range ops {
		specs = append(specs, acl.BuildSpec{Op: op, Count: 6})
	}
	lib, err := acl.Build(specs, 3, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		wa, wb := op.InWidths()
		dense, sparse := observe(wa, wb, int64(10+i), 6000)
		score := func(d *pmf.PMF) []*acl.Circuit {
			src := lib.For(op)
			cs := make([]*acl.Circuit, len(src))
			for j, c := range src {
				cc := *c
				cs[j] = &cc
			}
			acl.ScoreWMED(cs, d)
			return cs
		}
		dc, sc := score(dense), score(sparse)
		for j := range dc {
			if math.Float64bits(dc[j].WMED) != math.Float64bits(sc[j].WMED) {
				t.Fatalf("%s circuit %s: WMED dense %v, sparse %v", op, dc[j].Name, dc[j].WMED, sc[j].WMED)
			}
		}
	}
}
