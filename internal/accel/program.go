package accel

import (
	"autoax/internal/acl"
)

// gprogLanes is how many pixels a compiled graph program evaluates per
// node-decode pass.
const gprogLanes = 64

// gprog is a Graph lowered into struct-of-arrays instruction streams for
// lane-blocked exact evaluation: every node processes 64 pixels per
// decode, which amortizes the per-node dispatch of the interpreting
// walker and removes the per-pixel trace-closure indirection from the
// profiler.  A gprog is immutable after compileGraph and safe for
// concurrent use with per-goroutine value buffers.
//
// The value buffer is node-major: node i owns vals[i*64 : (i+1)*64].
// Lane values are bit-identical to the frozen node-by-node model
// (Graph.EvalExact, test-only) on the same inputs.
type gprog struct {
	kind  []NodeKind
	a, b  []int32
	mask  []uint64 // uint64(1)<<width - 1 per node
	shift []uint
	konst []uint64
	opk   []acl.Kind // NodeOp: operation class
	opIdx []int32    // NodeOp: position in OpNodes order (trace key)
	subM  []uint64   // NodeOp/Sub: two's-complement result mask
}

// compileGraph lowers a validated graph; Validate must have accepted g.
func compileGraph(g *Graph) *gprog {
	n := len(g.Nodes)
	p := &gprog{
		kind:  make([]NodeKind, n),
		a:     make([]int32, n),
		b:     make([]int32, n),
		mask:  make([]uint64, n),
		shift: make([]uint, n),
		konst: make([]uint64, n),
		opk:   make([]acl.Kind, n),
		opIdx: make([]int32, n),
		subM:  make([]uint64, n),
	}
	opIdx := int32(0)
	for i, nd := range g.Nodes {
		p.kind[i] = nd.Kind
		p.mask[i] = uint64(1)<<uint(nd.Width) - 1
		p.opIdx[i] = -1
		switch nd.Kind {
		case NodeConst:
			p.konst[i] = nd.Const & p.mask[i]
		case NodeOp:
			p.a[i], p.b[i] = int32(nd.Args[0]), int32(nd.Args[1])
			p.opk[i] = nd.Op.Kind
			p.subM[i] = uint64(1)<<uint(nd.Op.Width+1) - 1
			p.opIdx[i] = opIdx
			opIdx++
		case NodeShiftL, NodeShiftR:
			p.a[i] = int32(nd.Args[0])
			p.shift[i] = uint(nd.Shift)
		case NodeTrunc, NodeAbs, NodeClamp:
			p.a[i] = int32(nd.Args[0])
		}
	}
	return p
}

// numVals returns the value-buffer length evalLanes needs.
func (p *gprog) numVals() int { return len(p.kind) * gprogLanes }

// setConsts fills the constant-node rows of vals; they stay valid across
// evalLanes calls on the same buffer.
func (p *gprog) setConsts(vals []uint64) {
	for i, k := range p.kind {
		if k != NodeConst {
			continue
		}
		row := vals[i*gprogLanes : (i+1)*gprogLanes]
		for l := range row {
			row[l] = p.konst[i]
		}
	}
}

// evalLanes evaluates lanes pixels through the program.  Input-node rows
// (and, via setConsts, constant rows) must be pre-filled by the caller
// with values masked to the node width.  When trace is non-nil it receives
// the operand pair of every operation node per lane, in lane order — the
// profiler hook of paper §2.2.
func (p *gprog) evalLanes(vals []uint64, lanes int, trace func(opIdx int, a, b uint64)) {
	for i, k := range p.kind {
		dst := vals[i*gprogLanes : i*gprogLanes+lanes]
		switch k {
		case NodeInput, NodeConst:
			// pre-filled
		case NodeOp:
			av := vals[int(p.a[i])*gprogLanes:]
			bv := vals[int(p.b[i])*gprogLanes:]
			av = av[:lanes]
			bv = bv[:lanes]
			if trace != nil {
				oi := int(p.opIdx[i])
				for l := 0; l < lanes; l++ {
					trace(oi, av[l], bv[l])
				}
			}
			switch p.opk[i] {
			case acl.Add:
				for l := range dst {
					dst[l] = av[l] + bv[l]
				}
			case acl.Sub:
				m := p.subM[i]
				for l := range dst {
					dst[l] = (av[l] - bv[l]) & m
				}
			case acl.Mul:
				for l := range dst {
					dst[l] = av[l] * bv[l]
				}
			}
		case NodeShiftL:
			av := vals[int(p.a[i])*gprogLanes:][:lanes]
			s := p.shift[i]
			for l := range dst {
				dst[l] = av[l] << s
			}
		case NodeShiftR:
			av := vals[int(p.a[i])*gprogLanes:][:lanes]
			s := p.shift[i]
			for l := range dst {
				dst[l] = av[l] >> s
			}
		case NodeTrunc:
			av := vals[int(p.a[i])*gprogLanes:][:lanes]
			m := p.mask[i]
			for l := range dst {
				dst[l] = av[l] & m
			}
		case NodeAbs:
			av := vals[int(p.a[i])*gprogLanes:][:lanes]
			m := p.mask[i]
			sign := (m + 1) >> 1 // top bit of the width
			for l := range dst {
				v := av[l]
				if v&sign != 0 {
					v = (^v + 1) & m
				}
				dst[l] = v
			}
		case NodeClamp:
			av := vals[int(p.a[i])*gprogLanes:][:lanes]
			limit := p.mask[i]
			for l := range dst {
				v := av[l]
				if v > limit {
					v = limit
				}
				dst[l] = v
			}
		}
	}
}
