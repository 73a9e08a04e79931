// Package pmf implements joint probability mass functions over operand
// pairs of accelerator operations.
//
// autoAx's library pre-processing (paper §2.2) profiles the accelerator on
// benchmark data to obtain D_k — the probability of each operand-value
// combination reaching operation k — and scores every library circuit by
// the weighted mean error distance under D_k.  Operand pairs up to 16 total
// bits are stored densely (a 64k-entry table at most); wider pairs (the 9-
// and 10-bit operations of Sobel, whose profile observes a few thousand
// pairs, and the 16-bit adders of the Gaussian filters) use a sparse map
// over the observed support.  Both forms iterate in operand order, so a
// PMF's sums do not depend on its form.
package pmf

import (
	"fmt"
	"slices"
)

// DenseBits is the largest total operand width New stores as a dense
// table.
const DenseBits = 16

// UniformBits is the largest total operand width Uniform accepts: the
// uniform distribution has full support, so it is always stored densely
// (a 1M-entry table at most).
const UniformBits = 20

// PMF is a joint distribution over the two operand values of an operation.
// The zero value is unusable; use New.
type PMF struct {
	wa, wb int
	dense  []float64
	sparse map[uint64]float64
	total  float64
}

// New returns an empty PMF for operands of wa and wb bits.
func New(wa, wb int) *PMF { return newForm(wa, wb, wa+wb <= DenseBits) }

// newForm returns an empty PMF stored densely or sparsely.
func newForm(wa, wb int, dense bool) *PMF {
	p := &PMF{wa: wa, wb: wb}
	if dense {
		p.dense = make([]float64, 1<<uint(wa+wb))
	} else {
		p.sparse = make(map[uint64]float64)
	}
	return p
}

func (p *PMF) key(a, b uint64) uint64 { return a<<uint(p.wb) | b }

// Add accumulates weight w on the operand pair (a, b).
func (p *PMF) Add(a, b uint64, w float64) {
	if p.dense != nil {
		p.dense[p.key(a, b)] += w
	} else {
		p.sparse[p.key(a, b)] += w
	}
	p.total += w
}

// Total returns the accumulated (un-normalized) mass.
func (p *PMF) Total() float64 { return p.total }

// Normalize scales the PMF so the total mass is 1.  It is a no-op on an
// empty PMF.
func (p *PMF) Normalize() {
	if p.total == 0 || p.total == 1 {
		return
	}
	inv := 1 / p.total
	if p.dense != nil {
		for i, v := range p.dense {
			if v != 0 {
				p.dense[i] = v * inv
			}
		}
	} else {
		for k, v := range p.sparse {
			p.sparse[k] = v * inv
		}
	}
	p.total = 1
}

// Prob returns the mass on (a, b).
func (p *PMF) Prob(a, b uint64) float64 {
	if p.dense != nil {
		return p.dense[p.key(a, b)]
	}
	return p.sparse[p.key(a, b)]
}

// SupportSize returns the number of operand pairs with non-zero mass.
func (p *PMF) SupportSize() int {
	if p.sparse != nil {
		return len(p.sparse)
	}
	n := 0
	for _, v := range p.dense {
		if v != 0 {
			n++
		}
	}
	return n
}

// ForEach invokes fn for every operand pair with non-zero mass, in operand
// order (by a, then b) in either form.
func (p *PMF) ForEach(fn func(a, b uint64, w float64)) {
	mb := uint64(1)<<uint(p.wb) - 1
	if p.dense != nil {
		for k, v := range p.dense {
			if v != 0 {
				fn(uint64(k)>>uint(p.wb), uint64(k)&mb, v)
			}
		}
		return
	}
	// The key packs a above b, so ascending keys are operand order.
	keys := make([]uint64, 0, len(p.sparse))
	for k, v := range p.sparse {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(k>>uint(p.wb), k&mb, p.sparse[k])
	}
}

// Uniform returns the uniform distribution over all operand pairs, stored
// densely (≤ UniformBits total bits).
func Uniform(wa, wb int) *PMF {
	if wa+wb > UniformBits {
		panic(fmt.Sprintf("pmf: uniform PMF over %d bits exceeds dense limit", wa+wb))
	}
	p := newForm(wa, wb, true)
	n := 1 << uint(wa+wb)
	w := 1 / float64(n)
	for i := range p.dense {
		p.dense[i] = w
	}
	p.total = 1
	return p
}

// Downsample buckets the PMF into a bins×bins grid for visualization,
// normalizing rows to the full operand ranges.
func (p *PMF) Downsample(bins int) [][]float64 {
	grid := make([][]float64, bins)
	for i := range grid {
		grid[i] = make([]float64, bins)
	}
	ra := float64(uint64(1) << uint(p.wa))
	rb := float64(uint64(1) << uint(p.wb))
	p.ForEach(func(a, b uint64, w float64) {
		ia := int(float64(a) / ra * float64(bins))
		ib := int(float64(b) / rb * float64(bins))
		if ia >= bins {
			ia = bins - 1
		}
		if ib >= bins {
			ib = bins - 1
		}
		grid[ia][ib] += w
	})
	return grid
}
