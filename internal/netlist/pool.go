package netlist

import "sync"

// Working arrays of the synthesis hot path (Builder hash tables, Simplify
// scratch, Analyze arrival times) are recycled through pools: each is as
// large as the netlist, and precise evaluation synthesizes one
// accelerator per configuration.

// slicePool recycles zeroed working slices.
type slicePool[T any] struct{ p sync.Pool }

// get returns a zeroed slice of length n, reusing a pooled one when it is
// large enough.
func (p *slicePool[T]) get(n int) []T {
	if b, _ := p.p.Get().(*[]T); b != nil && cap(*b) >= n {
		return zeroed(*b, n)
	}
	return make([]T, n)
}

func (p *slicePool[T]) put(s []T) {
	if s != nil {
		p.p.Put(&s)
	}
}

// zeroed returns buf resized to n zero elements, reallocating only when
// its capacity falls short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
