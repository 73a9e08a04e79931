// Package arith generates exact arithmetic circuits as gate-level netlists.
//
// These are both the reference ("accurate") implementations that anchor the
// approximate-component library and the structural building blocks the
// approximate families in internal/approxgen are derived from.  All buses
// are little-endian: index 0 is the least significant bit.
package arith

import (
	"fmt"

	"autoax/internal/netlist"
)

// Bus is a little-endian vector of signals.
type Bus = []netlist.Signal

// PadBus returns bus extended with Const0 to at least width bits.
func PadBus(x Bus, width int) Bus {
	for len(x) < width {
		x = append(x, netlist.Const0)
	}
	return x
}

// AddBus emits a ripple-carry adder for x + y + cin and returns a bus of
// max(len(x),len(y))+1 bits (the top bit is the carry out).
func AddBus(b *netlist.Builder, x, y Bus, cin netlist.Signal) Bus {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x, y = PadBus(x, w), PadBus(y, w)
	sum := make(Bus, w+1)
	carry := cin
	for i := 0; i < w; i++ {
		sum[i], carry = b.FullAdder(x[i], y[i], carry)
	}
	sum[w] = carry
	return sum
}

// SubBus emits x − y in two's complement over max(len(x),len(y))+1 bits;
// the top bit is the sign.  Both operands are treated as unsigned and
// zero-extended, so the extension bit of −y is the constant 1 (~0).
func SubBus(b *netlist.Builder, x, y Bus) Bus {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	x, y = PadBus(x, w+1), PadBus(y, w)
	ny := make(Bus, w+1)
	for i := 0; i < w; i++ {
		ny[i] = b.Not(y[i])
	}
	ny[w] = netlist.Const1
	return AddBus(b, x, ny, netlist.Const1)[:w+1]
}

// PartialProductColumns emits the AND-array partial products of x × y
// grouped by bit weight: the result has len(x)+len(y)−1 columns and
// column w holds all product bits of weight 2^w.
func PartialProductColumns(b *netlist.Builder, x, y Bus) []Bus {
	cols := make([]Bus, len(x)+len(y)-1)
	for i, xi := range x {
		for j, yj := range y {
			cols[i+j] = append(cols[i+j], b.And(xi, yj))
		}
	}
	return cols
}

// CompressColumns reduces partial-product columns to two addend rows using
// layered full-adder rounds (Wallace/Dadda-style, logarithmic depth),
// returning the rows padded to equal width.  Feeding the rows to AddBus or
// AddBusPrefix completes a multiplier.
func CompressColumns(b *netlist.Builder, cols []Bus) (row0, row1 Bus) {
	cols = append([]Bus(nil), cols...)
	for {
		reduce := false
		for _, c := range cols {
			if len(c) > 2 {
				reduce = true
				break
			}
		}
		if !reduce {
			break
		}
		next := make([]Bus, len(cols)+1)
		for w, bitsHere := range cols {
			i := 0
			for ; i+2 < len(bitsHere); i += 3 {
				s, c := b.FullAdder(bitsHere[i], bitsHere[i+1], bitsHere[i+2])
				next[w] = append(next[w], s)
				next[w+1] = append(next[w+1], c)
			}
			next[w] = append(next[w], bitsHere[i:]...)
		}
		if len(next[len(next)-1]) == 0 {
			next = next[:len(next)-1]
		}
		cols = next
	}
	row0 = make(Bus, len(cols))
	row1 = make(Bus, len(cols))
	for w := range cols {
		switch len(cols[w]) {
		case 0:
			row0[w], row1[w] = netlist.Const0, netlist.Const0
		case 1:
			row0[w], row1[w] = cols[w][0], netlist.Const0
		default:
			row0[w], row1[w] = cols[w][0], cols[w][1]
		}
	}
	return row0, row1
}

// NewRippleCarryAdder returns an exact n-bit ripple-carry adder:
// inputs a[0..n), b[0..n); outputs s[0..n] (n+1 bits).
func NewRippleCarryAdder(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("add%d_rca", n), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	b.OutputBus(AddBus(b, a, y, netlist.Const0))
	return b.Build()
}

// AddBusPrefix emits a Kogge–Stone parallel-prefix adder over x and y,
// returning max(len(x),len(y))+1 bits.  Logarithmic carry depth at the cost
// of extra prefix cells.
func AddBusPrefix(b *netlist.Builder, x, y Bus) Bus {
	n := len(x)
	if len(y) > n {
		n = len(y)
	}
	x, y = PadBus(x, n), PadBus(y, n)
	g := make(Bus, n)
	p := make(Bus, n)
	for i := 0; i < n; i++ {
		g[i] = b.And(x[i], y[i])
		p[i] = b.Xor(x[i], y[i])
	}
	// Prefix combine: (g,p) ∘ (g',p') = (g ∨ (p ∧ g'), p ∧ p').
	gg := append(Bus(nil), g...)
	pp := append(Bus(nil), p...)
	for d := 1; d < n; d <<= 1 {
		ng := append(Bus(nil), gg...)
		np := append(Bus(nil), pp...)
		for i := d; i < n; i++ {
			ng[i] = b.Or(gg[i], b.And(pp[i], gg[i-d]))
			np[i] = b.And(pp[i], pp[i-d])
		}
		gg, pp = ng, np
	}
	sum := make(Bus, n+1)
	sum[0] = p[0]
	for i := 1; i < n; i++ {
		sum[i] = b.Xor(p[i], gg[i-1])
	}
	sum[n] = gg[n-1]
	return sum
}

// NewKoggeStoneAdder returns an exact n-bit Kogge–Stone parallel-prefix
// adder (faster, larger than RCA) with the same interface as
// NewRippleCarryAdder.
func NewKoggeStoneAdder(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("add%d_ks", n), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	b.OutputBus(AddBusPrefix(b, a, y))
	return b.Build()
}

// NewCarrySelectAdder returns an exact n-bit carry-select adder with the
// given block size (intermediate area/delay point between RCA and prefix).
func NewCarrySelectAdder(n, block int) *netlist.Netlist {
	if block < 1 {
		block = 1
	}
	b := netlist.NewBuilder(fmt.Sprintf("add%d_csel%d", n, block), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	sum := make(Bus, 0, n+1)
	carry := netlist.Signal(netlist.Const0)
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		xa, xb := a[lo:hi], y[lo:hi]
		if lo == 0 {
			s := AddBus(b, xa, xb, netlist.Const0)
			sum = append(sum, s[:hi-lo]...)
			carry = s[hi-lo]
			continue
		}
		s0 := AddBus(b, xa, xb, netlist.Const0)
		s1 := AddBus(b, xa, xb, netlist.Const1)
		for i := 0; i < hi-lo; i++ {
			sum = append(sum, b.Mux(carry, s0[i], s1[i]))
		}
		carry = b.Mux(carry, s0[hi-lo], s1[hi-lo])
	}
	sum = append(sum, carry)
	b.OutputBus(sum)
	return b.Build()
}

// NewSubtractor returns an exact n-bit two's-complement subtractor:
// inputs a[0..n), b[0..n); outputs d[0..n] where bit n is the sign.
func NewSubtractor(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("sub%d_rca", n), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	b.OutputBus(SubBus(b, a, y))
	return b.Build()
}

// NewArrayMultiplier returns an exact n×n array multiplier: inputs a, b of
// n bits each; output 2n bits.  Rows of partial products are accumulated
// with ripple-carry adders, matching the classic carry-save array layout.
func NewArrayMultiplier(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("mul%d_array", n), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	// Row 0: a × y0.
	acc := make(Bus, n)
	for i := 0; i < n; i++ {
		acc[i] = b.And(a[i], y[0])
	}
	out := make(Bus, 0, 2*n)
	for j := 1; j < n; j++ {
		row := make(Bus, n)
		for i := 0; i < n; i++ {
			row[i] = b.And(a[i], y[j])
		}
		out = append(out, acc[0])
		s := AddBus(b, acc[1:], row, netlist.Const0)
		acc = s
	}
	out = append(out, acc...)
	b.OutputBus(PadBus(out, 2*n)[:2*n])
	return b.Build()
}

// NewDaddaMultiplier returns an exact n×n multiplier using Dadda-style
// column compression followed by a final ripple-carry addition.
func NewDaddaMultiplier(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("mul%d_dadda", n), 2*n)
	a, y := b.Inputs()[:n], b.Inputs()[n:]
	cols := PartialProductColumns(b, a, y)
	r0, r1 := CompressColumns(b, cols)
	sum := AddBusPrefix(b, r0, r1)
	b.OutputBus(PadBus(sum, 2*n)[:2*n])
	return b.Build()
}

// NewAbs returns the absolute-value circuit for an n-bit two's-complement
// input (bit n−1 is the sign): out = |x| over n−1 bits... the output keeps
// n bits so the most negative value does not overflow.
func NewAbs(n int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("abs%d", n), n)
	x := b.Inputs()
	sign := x[n-1]
	inv := make(Bus, n)
	for i := range inv {
		inv[i] = b.Xor(x[i], sign)
	}
	signBus := Bus{sign}
	sum := AddBus(b, inv, signBus, netlist.Const0)
	b.OutputBus(sum[:n])
	return b.Build()
}

// NewClamp returns a saturation circuit reducing an n-bit unsigned input to
// w bits: out = min(x, 2^w − 1).
func NewClamp(n, w int) *netlist.Netlist {
	b := netlist.NewBuilder(fmt.Sprintf("clamp%dto%d", n, w), n)
	x := b.Inputs()
	if n <= w {
		b.OutputBus(PadBus(x, w))
		return b.Build()
	}
	over := b.OrMany(x[w:]...)
	out := make(Bus, w)
	for i := 0; i < w; i++ {
		out[i] = b.Or(x[i], over)
	}
	b.OutputBus(out)
	return b.Build()
}
