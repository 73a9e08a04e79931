package netlist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autoax/internal/cell"
)

// Binary codec for Netlist, used by the persistent compiled-program
// tier in internal/accel: each entry holds a configuration's simplified
// netlist, and a hit recompiles it.  The format is versioned at the
// container level (the disk tier stamps ProgramFormatVersion into both
// its file names and entry headers); the codec only promises that
// DecodeNetlist rejects — rather than misreads — any bytes AppendBinary
// of the *current* version did not produce.
//
// A decoded netlist passes Netlist.Validate, the contract Compile and
// Analyze require, so a corrupt entry can only read as an error; callers
// treat any decode error as a cache miss (self-heal to recompile).  The
// unchecked slot access of Program.EvalBlock is not exposed to these
// bytes: only Compile makes a Program.

// ProgramFormatVersion identifies the on-disk encoding of a program
// directory entry.  Bump it whenever the netlist codec or the entry
// layout changes shape — persisted entries from other versions must read
// as clean misses.
const ProgramFormatVersion = 4

var errCorrupt = errors.New("netlist: corrupt encoded netlist")

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

// DecodeNetlist decodes one netlist from buf, returning the remaining
// bytes.  The decoded netlist is fully validated (Netlist.Validate, the
// contract Compile and Analyze require).
func DecodeNetlist(buf []byte) (*Netlist, []byte, error) {
	d := &decoder{buf: buf}
	name := string(d.bytes(d.count(1)))
	n := &Netlist{Name: name, NumInputs: int(d.u32())}
	nGates := d.count(13)
	if d.err == nil && n.NumInputs+nGates > maxEncodedNodes {
		return nil, nil, errCorrupt
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
		return nil, nil, d.err
	}
	if err := n.Validate(); err != nil {
		return nil, nil, fmt.Errorf("netlist: decoded netlist invalid: %w", err)
	}
	return n, d.buf, nil
}

// maxEncodedNodes bounds decoded sizes to keep a corrupt length field
// from provoking a giant allocation; it is far above any netlist this
// system synthesizes (the largest case-study multiplier is ~3k gates).
const maxEncodedNodes = 1 << 24
