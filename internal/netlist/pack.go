package netlist

import "math/bits"

// Bit-plane packing via block-diagonal bit-matrix transposes.
//
// Viewing 64 integer samples as a 64×64 bit matrix (row l = sample l,
// column k = bit k), converting between per-sample integers and per-bit
// plane words is exactly a matrix transpose.  The recursive block-swap
// network (Hacker's Delight §7-3, widened to 64×64) performs it in
// 6 log-steps of word operations instead of the O(width×64) shift-and-or
// bit loop, and every step is branch-free straight-line code.
//
// Unpacking only needs as many planes as the output is wide, so it runs
// the innermost log2 b stages over b rows, with b the smallest of 8, 16,
// 32 and 64 that holds the planes: each b×b diagonal block of the matrix
// is transposed in place, at a fraction of the full network's cost.

// swapMask[s] selects the low 2^s bits of every 2^(s+1)-bit group: the
// bits a block-swap stage of stride 2^s moves.
var swapMask = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// transposeBlocks transposes the b×b diagonal blocks of the bit matrix in
// rows a[0..b), b one of 8, 16, 32 or 64: afterwards bit c·b+r of row k
// is what bit c·b+k of row r was.  Rows from b up are not touched.  With
// b = 64 this is the full 64×64 transpose; the network is symmetric
// under simultaneous reversal of row order and bit order, so it is a
// plain transpose in the little-endian convention used here.
func transposeBlocks(a *[64]uint64, b uint) {
	for s := bits.TrailingZeros(b) - 1; s >= 0; s-- {
		j := uint(1) << uint(s)
		m := swapMask[s]
		for k := uint(0); k < b; k = (k + j + 1) &^ j {
			t := ((a[k&63] >> j) ^ a[(k|j)&63]) & m
			a[(k|j)&63] ^= t
			a[k&63] ^= t << j
		}
	}
}

// blockSize returns the transpose block for width planes: the smallest
// of 8, 16, 32 and 64 that is at least width.
func blockSize(width int) uint {
	switch {
	case width <= 8:
		return 8
	case width <= 16:
		return 16
	case width <= 32:
		return 32
	}
	return 64
}

// PackBits converts up to 64 integer samples of one operand into bit-plane
// words: dst[k] bit l holds bit k of vals[l].  dst must have length ≥ width.
func PackBits(vals []uint64, width int, dst []uint64) {
	var m [64]uint64
	copy(m[:], vals)
	transposeBlocks(&m, 64)
	copy(dst[:width], m[:width])
}

// UnpackBits reverses PackBits: it extracts count per-lane integers from
// bit-plane words into dst.  dst must have length ≥ count.
func UnpackBits(planes []uint64, count int, dst []uint64) {
	UnpackBlockWord(planes, min(len(planes), 64), 1, 0, count, dst)
}

// PackBitsBlock packs up to words×64 samples into the block-plane layout
// consumed by Program.EvalBlock: dst[k*words+w] holds, for operand bit k,
// the plane word of lanes [w*64, w*64+64).  Lanes beyond len(vals) pack as
// zero.  dst must have length ≥ width*words.
func PackBitsBlock(vals []uint64, width, words int, dst []uint64) {
	var m [64]uint64
	for w := 0; w < words; w++ {
		lo := w * 64
		if lo >= len(vals) {
			for k := 0; k < width; k++ {
				dst[k*words+w] = 0
			}
			continue
		}
		chunk := vals[lo:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		copy(m[:], chunk)
		for l := len(chunk); l < 64; l++ {
			m[l] = 0
		}
		transposeBlocks(&m, 64)
		for k := 0; k < width; k++ {
			dst[k*words+w] = m[k]
		}
	}
}

// counterPattern[j] is the bit-plane word of counter bit j over 64
// consecutive lane values: bit k of the word is bit j of k.
var counterPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// PackCounterBlock fills one block bit-plane for a counter sweep: dst[w]
// bit k receives bit `bit` of (base + w*64 + k), for lanes < lanes (lanes
// beyond pack as zero, matching PackBitsBlock of an explicit value
// slice).  base must be 64-aligned.  Exhaustive characterization sweeps
// enumerate operand pairs as one counter, so their input planes have this
// closed form — filling them directly replaces the 64×64 transpose of
// PackBitsBlock, which otherwise dominates the sweep.
func PackCounterBlock(base uint64, bit uint, lanes int, dst []uint64) {
	for w := range dst {
		var v uint64
		if w*64 < lanes {
			if bit < 6 {
				v = counterPattern[bit]
			} else if (base>>6+uint64(w))>>(bit-6)&1 != 0 {
				v = ^uint64(0)
			}
			if rem := lanes - w*64; rem < 64 {
				v &= uint64(1)<<uint(rem) - 1
			}
		}
		dst[w] = v
	}
}

// UnpackBitsBlock reverses PackBitsBlock: it extracts count per-lane
// integers from block planes laid out as planes[k*words+w] into dst.
// dst must have length ≥ count.
func UnpackBitsBlock(planes []uint64, width, words, count int, dst []uint64) {
	for w := 0; w < words && w*64 < count; w++ {
		UnpackBlockWord(planes, width, words, w, min(count-w*64, 64), dst[w*64:])
	}
}

// UnpackBlockWord extracts the per-lane integers of word w alone from
// block planes laid out as planes[k*words+w], for lanes 0..lanes-1 of
// that word, into dst (length ≥ lanes, lanes ≤ 64).  Its cost scales
// with width: the transpose runs on the smallest 8-, 16-, 32- or 64-row
// block that holds the planes.
func UnpackBlockWord(planes []uint64, width, words, w, lanes int, dst []uint64) {
	var m [64]uint64
	b := blockSize(width)
	for k := 0; k < width; k++ {
		m[k] = planes[k*words+w]
	}
	transposeBlocks(&m, b)
	// Lane c·b+r now sits at bits [c·b, c·b+b) of row r; rows width..b-1
	// were zero, so the value's bits from width up are zero.
	lo := b - 1
	mask := uint64(1)<<b - 1
	for l := range dst[:lanes] {
		dst[l] = m[uint(l)&lo&63] >> (uint(l) &^ lo) & mask
	}
}
