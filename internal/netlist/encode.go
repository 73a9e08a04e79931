package netlist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autoax/internal/cell"
)

// Binary codecs for Netlist and Program, used by the persistent
// compiled-program tier in internal/accel.  The format is versioned at
// the container level (the disk tier stamps ProgramFormatVersion into
// both its file names and entry headers); these encoders only promise
// that DecodeProgram/DecodeNetlist reject — rather than misread — any
// bytes AppendBinary of the *current* version did not produce.
//
// Decoding validates everything the evaluation kernel relies on.  This is
// load-bearing for memory safety, not hygiene: Program.EvalBlock uses
// unchecked slot access (see slotLoad), so a corrupt entry that
// decoded structurally but carried an out-of-range slot would read or
// write out of bounds.  Every opcode, operand slot, destination slot and
// output slot is therefore range-checked here, and callers treat any
// decode error as a cache miss (self-heal to recompile).

// ProgramFormatVersion identifies the on-disk encoding of Netlist and
// Program.  Bump it whenever the instruction set, the slot layout, or
// either codec changes shape — persisted entries from other versions
// must read as clean misses.
const ProgramFormatVersion = 3

var errCorrupt = errors.New("netlist: corrupt encoded program")

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.err = errCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// count reads a u32 element count, rejecting values that could not
// describe a well-formed encoding of the remaining bytes (each element
// occupies at least minBytes).
func (d *decoder) count(minBytes int) int {
	v := d.u32()
	if d.err == nil && int64(v)*int64(minBytes) > int64(len(d.buf)) {
		d.err = errCorrupt
		return 0
	}
	return int(v)
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = errCorrupt
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// AppendBinary appends the netlist's binary encoding to dst.
func (n *Netlist) AppendBinary(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(n.Name)))
	dst = append(dst, n.Name...)
	dst = appendU32(dst, uint32(n.NumInputs))
	dst = appendU32(dst, uint32(len(n.Gates)))
	for _, g := range n.Gates {
		dst = append(dst, byte(g.Kind))
		dst = appendU32(dst, uint32(g.A))
		dst = appendU32(dst, uint32(g.B))
		dst = appendU32(dst, uint32(g.C))
	}
	dst = appendU32(dst, uint32(len(n.Outputs)))
	for _, o := range n.Outputs {
		dst = appendU32(dst, uint32(o))
	}
	return dst
}

// decodeNetlist consumes one encoded netlist from d and validates it
// structurally (via Netlist.Validate, the contract Compile and Analyze
// require).
func decodeNetlist(d *decoder) (*Netlist, error) {
	name := string(d.bytes(d.count(1)))
	n := &Netlist{Name: name, NumInputs: int(d.u32())}
	nGates := d.count(13)
	if d.err == nil && n.NumInputs+nGates > maxEncodedNodes {
		return nil, errCorrupt
	}
	n.Gates = make([]Gate, nGates)
	for i := range n.Gates {
		n.Gates[i] = Gate{
			Kind: cell.Kind(d.bytes(1)[0]),
			A:    Signal(d.u32()),
			B:    Signal(d.u32()),
			C:    Signal(d.u32()),
		}
	}
	n.Outputs = make([]Signal, d.count(4))
	for i := range n.Outputs {
		n.Outputs[i] = Signal(d.u32())
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: decoded netlist invalid: %w", err)
	}
	return n, nil
}

// DecodeNetlist decodes one netlist from buf, returning the remaining
// bytes.  The decoded netlist is fully validated.
func DecodeNetlist(buf []byte) (*Netlist, []byte, error) {
	d := &decoder{buf: buf}
	n, err := decodeNetlist(d)
	if err != nil {
		return nil, nil, err
	}
	return n, d.buf, nil
}

// maxEncodedNodes bounds decoded sizes to keep a corrupt length field
// from provoking a giant allocation; it is far above any netlist this
// system synthesizes (the largest case-study multiplier is ~3k gates).
const maxEncodedNodes = 1 << 24

// AppendBinary appends the program's binary encoding to dst.
func (p *Program) AppendBinary(dst []byte) []byte {
	dst = appendU32(dst, uint32(p.numInputs))
	dst = appendU32(dst, uint32(p.numOuts))
	dst = appendU32(dst, uint32(p.numSlots))
	dst = appendU32(dst, uint32(len(p.op)))
	for i := range p.op {
		dst = append(dst, byte(p.op[i]))
		dst = appendU32(dst, uint32(p.a[i]))
		dst = appendU32(dst, uint32(p.b[i]))
		dst = appendU32(dst, uint32(p.c[i]))
		dst = appendU32(dst, uint32(p.dst[i]))
	}
	dst = appendU32(dst, uint32(len(p.outs)))
	for _, o := range p.outs {
		dst = appendU32(dst, uint32(o))
	}
	return dst
}

// DecodeProgram decodes one program from buf, returning the remaining
// bytes.  Every opcode and slot index is validated against the decoded
// slot count, so a successfully decoded program upholds the unchecked
// slot-access invariant of EvalBlock no matter what the input bytes were.
func DecodeProgram(buf []byte) (*Program, []byte, error) {
	d := &decoder{buf: buf}
	p := &Program{
		numInputs: int(d.u32()),
		numOuts:   int(d.u32()),
		numSlots:  int(d.u32()),
	}
	nInstr := d.count(17)
	if d.err != nil {
		return nil, nil, d.err
	}
	if p.numInputs < 0 || p.numSlots > maxEncodedNodes ||
		p.numSlots < p.numInputs+2 || p.numInputs+nInstr > p.numSlots-2 {
		return nil, nil, errCorrupt
	}
	p.op = make([]opcode, nInstr)
	p.a = make([]int32, nInstr)
	p.b = make([]int32, nInstr)
	p.c = make([]int32, nInstr)
	p.dst = make([]int32, nInstr)
	slotOK := func(s uint32) bool { return s < uint32(p.numSlots) }
	for i := 0; i < nInstr; i++ {
		op := opcode(d.bytes(1)[0])
		a, b, c, dt := d.u32(), d.u32(), d.u32(), d.u32()
		if d.err != nil {
			return nil, nil, d.err
		}
		if op >= opcodeCount || !slotOK(a) || !slotOK(b) || !slotOK(c) {
			return nil, nil, errCorrupt
		}
		if int64(dt) < int64(p.numInputs) || int64(dt) >= int64(p.numSlots-2) {
			return nil, nil, errCorrupt // destinations are gate slots, never inputs or rails
		}
		p.op[i], p.a[i], p.b[i], p.c[i], p.dst[i] = op, int32(a), int32(b), int32(c), int32(dt)
	}
	nOuts := d.count(4)
	if d.err != nil || nOuts != p.numOuts {
		return nil, nil, errCorrupt
	}
	p.outs = make([]int32, nOuts)
	for i := range p.outs {
		o := d.u32()
		if d.err != nil || !slotOK(o) {
			return nil, nil, errCorrupt
		}
		p.outs[i] = int32(o)
	}
	return p, d.buf, nil
}
