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

	// Pack the support into blocks of W×64 lanes once; every circuit
	// then visits the lanes in support order, so the weighted sum adds
	// the same terms in the same order whatever the block width.
	const W = netlist.BlockWords
	var blocks [][]uint64
	var avals, bvals, ovals [W * 64]uint64
	for base := 0; base < len(support); base += W * 64 {
		lanes := min(len(support)-base, W*64)
		for l := 0; l < lanes; l++ {
			avals[l] = support[base+l].a
			bvals[l] = support[base+l].b
		}
		planes := make([]uint64, (wa+wb)*W)
		netlist.PackBitsBlock(avals[:lanes], wa, W, planes[:wa*W])
		netlist.PackBitsBlock(bvals[:lanes], wb, W, planes[wa*W:])
		blocks = append(blocks, planes)
	}

	for _, c := range circuits {
		prog := netlist.Compile(c.Netlist)
		outW := min(prog.NumOutputs(), 64)
		scratch := make([]uint64, prog.NumSlots()*W)
		outBuf := make([]uint64, prog.NumOutputs()*W)
		var wmed float64
		for j, planes := range blocks {
			base := j * W * 64
			lanes := min(len(support)-base, W*64)
			out := prog.EvalBlock(planes, scratch, outBuf)
			netlist.UnpackBitsBlock(out, outW, W, lanes, ovals[:])
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
