package netlist

import "sync"

// Working arrays of the synthesis hot path (Builder hash tables, Simplify
// scratch, Analyze arrival times) are recycled through pools: each is as
// large as the netlist, and precise evaluation synthesizes one
// accelerator per configuration.

// slicePool recycles zeroed working slices.  It hands out and takes back
// the pointer it stores, so a round trip allocates nothing once the pool
// is warm.
type slicePool[T any] struct{ p sync.Pool }

// get returns a pointer to a zeroed slice of length n, reusing a pooled
// one when it is large enough.
func (p *slicePool[T]) get(n int) *[]T {
	b, _ := p.p.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = zeroed(*b, n)
	return b
}

// put returns a slice that get handed out; nil is ignored.
func (p *slicePool[T]) put(b *[]T) {
	if b != nil {
		p.p.Put(b)
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
