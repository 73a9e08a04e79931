package acl

import (
	"sort"

	"autoax/internal/netlist"
	"autoax/internal/pmf"
)

// ScoreWMED fills in the WMED field of every circuit: the weighted mean
// error distance Σ D(a,b)·|M(a,b) − M~(a,b)| under the application-specific
// operand distribution d (paper §2.2).  All circuits must implement the
// same operation and d must use matching operand widths.
func ScoreWMED(circuits []*Circuit, d *pmf.PMF) {
	if len(circuits) == 0 {
		return
	}
	op := circuits[0].Op
	wa, wb := op.InWidths()
	// Materialize the support once, in ForEach's operand order, so every
	// circuit is scored over identical batches.
	type sup struct {
		a, b uint64
		w    float64
	}
	support := make([]sup, 0, d.SupportSize())
	d.ForEach(func(a, b uint64, w float64) {
		support = append(support, sup{a, b, w})
	})

	planesAll := make([][]uint64, 0, (len(support)+63)/64)
	lanesAll := make([]int, 0, cap(planesAll))
	var avals, bvals [64]uint64
	for base := 0; base < len(support); base += 64 {
		lanes := len(support) - base
		if lanes > 64 {
			lanes = 64
		}
		for l := 0; l < lanes; l++ {
			avals[l] = support[base+l].a
			bvals[l] = support[base+l].b
		}
		planes := make([]uint64, wa+wb)
		netlist.PackBits(avals[:lanes], wa, planes[:wa])
		netlist.PackBits(bvals[:lanes], wb, planes[wa:])
		planesAll = append(planesAll, planes)
		lanesAll = append(lanesAll, lanes)
	}

	var ovals [64]uint64
	for _, c := range circuits {
		ev := netlist.NewEvaluator(c.Netlist)
		var wmed float64
		for j, planes := range planesAll {
			out := ev.Eval(planes)
			lanes := lanesAll[j]
			netlist.UnpackBits(out, lanes, ovals[:])
			base := j * 64
			for l := 0; l < lanes; l++ {
				s := support[base+l]
				exact := op.Value(op.Exact(s.a, s.b))
				got := op.Value(ovals[l])
				diff := got - exact
				if diff < 0 {
					diff = -diff
				}
				wmed += s.w * float64(diff)
			}
		}
		c.WMED = wmed
	}
}

// ParetoFilter returns the circuits that are Pareto-optimal when minimizing
// (WMED, Area) — the paper's component-filtering step that shrinks each
// operation's library to the reduced library RL_k.  The input is not
// modified; the result is sorted by ascending WMED.
func ParetoFilter(circuits []*Circuit) []*Circuit {
	if len(circuits) == 0 {
		return nil
	}
	sorted := append([]*Circuit(nil), circuits...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].WMED != sorted[j].WMED {
			return sorted[i].WMED < sorted[j].WMED
		}
		return sorted[i].Area < sorted[j].Area
	})
	var front []*Circuit
	bestArea := -1.0
	for _, c := range sorted {
		if bestArea < 0 || c.Area < bestArea {
			front = append(front, c)
			bestArea = c.Area
		}
	}
	return front
}

// Reduce applies ScoreWMED followed by ParetoFilter: the complete library
// pre-processing for one operation of the accelerator.
func Reduce(circuits []*Circuit, d *pmf.PMF) []*Circuit {
	ScoreWMED(circuits, d)
	return ParetoFilter(circuits)
}
