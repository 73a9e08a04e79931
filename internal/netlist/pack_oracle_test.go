package netlist

import (
	"math/rand"
	"testing"
)

// Frozen oracles: UnpackBits and UnpackBitsBlock exactly as they stood
// when every unpack ran the full 64×64 transpose.  The width-sized kernel
// must reproduce them lane for lane; nothing outside the oracle tests may
// call them.

func oracleTranspose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k|j]) & m
			a[k|j] ^= t
			a[k] ^= t << j
		}
		j >>= 1
		m ^= m << j
	}
}

func oracleUnpackBits(planes []uint64, count int, dst []uint64) {
	var m [64]uint64
	copy(m[:], planes)
	oracleTranspose64(&m)
	copy(dst[:count], m[:count])
}

func oracleUnpackBitsBlock(planes []uint64, width, words, count int, dst []uint64) {
	var m [64]uint64
	for w := 0; w < words && w*64 < count; w++ {
		for k := 0; k < width; k++ {
			m[k] = planes[k*words+w]
		}
		for k := width; k < 64; k++ {
			m[k] = 0
		}
		oracleTranspose64(&m)
		lanes := count - w*64
		if lanes > 64 {
			lanes = 64
		}
		copy(dst[w*64:w*64+lanes], m[:lanes])
	}
}

// unpackCase generates case seed: a width of 1–64 planes over 1–8 words,
// a lane count that is often partial, and plane words that are random,
// all zero, all one, or sparse.
func unpackCase(seed int64) (planes []uint64, width, words, count int) {
	rng := rand.New(rand.NewSource(seed))
	width = 1 + rng.Intn(64)
	words = 1 + rng.Intn(8)
	switch rng.Intn(3) {
	case 0:
		count = words * 64
	case 1:
		count = 1 + rng.Intn(words*64)
	default:
		count = (words-1)*64 + 1 + rng.Intn(64)
	}
	planes = make([]uint64, width*words)
	fill := rng.Intn(4)
	for i := range planes {
		switch fill {
		case 0:
			planes[i] = rng.Uint64()
		case 1:
			planes[i] = 0
		case 2:
			planes[i] = ^uint64(0)
		default:
			planes[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	}
	return planes, width, words, count
}

// TestUnpackOracle pins UnpackBitsBlock, UnpackBlockWord and UnpackBits
// to the full-transpose oracles.  Lanes past count must stay untouched.
func TestUnpackOracle(t *testing.T) {
	const sentinel = 0xDEADBEEFDEADBEEF
	for seed := int64(0); seed < 4000; seed++ {
		planes, width, words, count := unpackCase(seed)
		want := make([]uint64, words*64)
		got := make([]uint64, words*64)
		for i := range want {
			want[i], got[i] = sentinel, sentinel
		}
		oracleUnpackBitsBlock(planes, width, words, count, want)
		UnpackBitsBlock(planes, width, words, count, got)
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("repro: go test ./internal/netlist -run TestUnpackOracle (unpackCase(%d): width %d, words %d, count %d): UnpackBitsBlock lane %d = %x, oracle %x",
					seed, width, words, count, l, got[l], want[l])
			}
		}
		for w := 0; w*64 < count; w++ {
			lanes := min(count-w*64, 64)
			var one [64]uint64
			UnpackBlockWord(planes, width, words, w, lanes, one[:])
			for l := 0; l < lanes; l++ {
				if one[l] != want[w*64+l] {
					t.Fatalf("repro: go test ./internal/netlist -run TestUnpackOracle (unpackCase(%d)): UnpackBlockWord word %d lane %d = %x, oracle %x",
						seed, w, l, one[l], want[w*64+l])
				}
			}
		}
		// The single-word form reads width from len(planes).
		single := make([]uint64, width)
		for k := range single {
			single[k] = planes[k*words]
		}
		lanes := min(count, 64)
		want1 := make([]uint64, 64)
		got1 := make([]uint64, 64)
		oracleUnpackBits(single, lanes, want1)
		UnpackBits(single, lanes, got1)
		for l := range want1 {
			if got1[l] != want1[l] {
				t.Fatalf("repro: go test ./internal/netlist -run TestUnpackOracle (unpackCase(%d)): UnpackBits lane %d = %x, oracle %x",
					seed, l, got1[l], want1[l])
			}
		}
	}
}

// TestUnpackBitsLongPlanes pins UnpackBits on more than 64 plane words:
// like the oracle it reads only the first 64.
func TestUnpackBitsLongPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	planes := make([]uint64, 70)
	for i := range planes {
		planes[i] = rng.Uint64()
	}
	want := make([]uint64, 64)
	got := make([]uint64, 64)
	oracleUnpackBits(planes, 64, want)
	UnpackBits(planes, 64, got)
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("lane %d = %x, oracle %x", l, got[l], want[l])
		}
	}
}

// TestPackOracle pins PackBits and PackBitsBlock, which run the b = 64
// case of the same network, to the frozen full transpose.
func TestPackOracle(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(64)
		words := 1 + rng.Intn(4)
		vals := make([]uint64, 1+rng.Intn(words*64))
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		got := make([]uint64, width*words)
		PackBitsBlock(vals, width, words, got)
		for w := 0; w < words; w++ {
			var m [64]uint64
			if lo := w * 64; lo < len(vals) {
				copy(m[:], vals[lo:])
			}
			oracleTranspose64(&m)
			for k := 0; k < width; k++ {
				if got[k*words+w] != m[k] {
					t.Fatalf("repro: go test ./internal/netlist -run TestPackOracle (seed %d): plane %d word %d = %x, oracle %x",
						seed, k, w, got[k*words+w], m[k])
				}
			}
		}
	}
}
