package netlist

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"autoax/internal/store"
)

// roundTripNetlists returns the random netlists TestEncodeRoundTrip
// encodes; the decoder fuzz targets are seeded with the same encodings.
func roundTripNetlists() []*Netlist {
	rng := rand.New(rand.NewSource(17))
	ns := make([]*Netlist, 120)
	for i := range ns {
		ns[i] = randomNetlist(rng, 1+rng.Intn(8), rng.Intn(50))
	}
	return ns
}

// TestEncodeRoundTrip pins the binary codecs: netlist and program survive
// encode→decode with evaluation-identical results, and chained encodings
// consume exactly their own bytes.
func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial, n := range roundTripNetlists() {
		p := Compile(n)
		buf := n.AppendBinary(nil)
		buf = p.AppendBinary(buf)
		buf = append(buf, 0xEE) // trailing byte must survive untouched

		dn, rest, err := DecodeNetlist(buf)
		if err != nil {
			t.Fatalf("trial %d: DecodeNetlist: %v", trial, err)
		}
		dp, rest, err := DecodeProgram(rest)
		if err != nil {
			t.Fatalf("trial %d: DecodeProgram: %v", trial, err)
		}
		if len(rest) != 1 || rest[0] != 0xEE {
			t.Fatalf("trial %d: codec consumed wrong byte count", trial)
		}
		if dn.Name != n.Name || dn.NumInputs != n.NumInputs || len(dn.Gates) != len(n.Gates) || len(dn.Outputs) != len(n.Outputs) {
			t.Fatalf("trial %d: netlist shape drifted", trial)
		}
		if dp.NumSlots() != p.NumSlots() || dp.NumGates() != p.NumGates() ||
			dp.NumInputs() != p.NumInputs() || dp.NumOutputs() != p.NumOutputs() {
			t.Fatalf("trial %d: program shape drifted", trial)
		}
		in := make([]uint64, n.NumInputs*BlockWords)
		for i := range in {
			in[i] = rng.Uint64()
		}
		want := p.EvalBlock(in, nil, nil)
		got := dp.EvalBlock(in, nil, nil)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("trial %d: decoded program diverged at %d: %x vs %x", trial, j, got[j], want[j])
			}
		}
	}
}

// TestDecodeProgramRejectsTruncation pins that every strict prefix of an
// encoded program fails to decode (rather than yielding a program with
// dangling state — the unsafe kernel depends on decode-time validation).
func TestDecodeProgramRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := randomNetlist(rng, 5, 30)
	p := Compile(n)
	buf := p.AppendBinary(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeProgram(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(buf))
		}
	}
	nb := n.AppendBinary(nil)
	for cut := 0; cut < len(nb); cut++ {
		if _, _, err := DecodeNetlist(nb[:cut]); err == nil {
			t.Fatalf("netlist truncation to %d/%d bytes decoded successfully", cut, len(nb))
		}
	}
}

// TestDecodeProgramValidatesSlots corrupts encoded operand/destination
// slots and opcodes; decode must reject anything that would break the
// unchecked slot-access invariant, and must never panic on garbage.
func TestDecodeProgramValidatesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := randomNetlist(rng, 4, 20)
	p := Compile(n)
	buf := p.AppendBinary(nil)
	for trial := 0; trial < 5000; trial++ {
		mut := append([]byte(nil), buf...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		dp, _, err := DecodeProgram(mut)
		if err != nil {
			continue
		}
		// Whatever decoded must still be safe to run: every slot in
		// range is exactly what DecodeProgram promises.
		ns := dp.NumSlots()
		for i := 0; i < len(dp.op); i++ {
			if dp.op[i] >= opcodeCount ||
				int(dp.a[i]) >= ns || int(dp.b[i]) >= ns || int(dp.c[i]) >= ns ||
				int(dp.dst[i]) < dp.numInputs || int(dp.dst[i]) >= ns-2 {
				t.Fatalf("trial %d: decode accepted unsafe instruction %d", trial, i)
			}
		}
		for _, o := range dp.outs {
			if int(o) >= ns {
				t.Fatalf("trial %d: decode accepted unsafe output slot", trial)
			}
		}
		if ns <= fuzzMaxSlots {
			dp.EvalBlock(make([]uint64, dp.NumInputs()*BlockWords), nil, nil) // must not fault
		}
	}
	// Pure garbage must never panic either.
	for trial := 0; trial < 2000; trial++ {
		g := make([]byte, rng.Intn(200))
		rng.Read(g)
		DecodeProgram(g)
		DecodeNetlist(g)
	}
}

// fuzzMaxSlots bounds the netlists and programs the decoder checks run:
// a few header bytes can declare millions of inputs, and evaluating those
// would only measure the allocator.
const fuzzMaxSlots = 1 << 12

// tinyProgPayload returns the payload of the golden program-directory
// entry: an encoded netlist followed by its encoded program.
func tinyProgPayload(f *testing.F) []byte {
	buf, err := os.ReadFile("../store/testdata/tiny.prog")
	if err != nil {
		f.Fatal(err)
	}
	payload, _, err := store.ReadFrame(buf, [4]byte{'a', 'x', 'p', 'g'}, ProgramFormatVersion, math.MaxUint64)
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// FuzzDecodeNetlist: every netlist DecodeNetlist accepts can be analyzed,
// compiled and evaluated without a panic, its program agrees with the
// interpreter, and it re-encodes to exactly the bytes it consumed.
func FuzzDecodeNetlist(f *testing.F) {
	for _, n := range roundTripNetlists()[:20] {
		f.Add(n.AppendBinary(nil))
	}
	f.Add(tinyProgPayload(f))
	f.Fuzz(func(t *testing.T, buf []byte) {
		n, rest, err := DecodeNetlist(buf)
		if err != nil {
			return
		}
		if re := n.AppendBinary(nil); !bytes.Equal(re, buf[:len(buf)-len(rest)]) {
			t.Fatalf("decoded netlist re-encodes to %x, consumed %x", re, buf[:len(buf)-len(rest)])
		}
		if n.NumNodes() > fuzzMaxSlots {
			return
		}
		n.Analyze()
		in := make([]uint64, n.NumInputs*BlockWords)
		for i := range in {
			in[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		n.AnalyzeActivity([][]uint64{in}, []int{BlockWords * 64})
		got := Compile(n).EvalBlock(in, nil, nil)
		for w := 0; w < BlockWords; w++ {
			want := n.Eval(blockWord(in, w), nil, nil)
			for j := range want {
				if got[j*BlockWords+w] != want[j] {
					t.Fatalf("output %d word %d: program %x, interpreter %x", j, w, got[j*BlockWords+w], want[j])
				}
			}
		}
	})
}

// FuzzDecodeProgram: every program DecodeProgram accepts evaluates
// without a panic and re-encodes to exactly the bytes it consumed.
func FuzzDecodeProgram(f *testing.F) {
	for _, n := range roundTripNetlists()[:20] {
		f.Add(Compile(n).AppendBinary(nil))
	}
	_, prog, err := DecodeNetlist(tinyProgPayload(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prog)
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, rest, err := DecodeProgram(buf)
		if err != nil {
			return
		}
		if re := p.AppendBinary(nil); !bytes.Equal(re, buf[:len(buf)-len(rest)]) {
			t.Fatalf("decoded program re-encodes to %x, consumed %x", re, buf[:len(buf)-len(rest)])
		}
		if p.NumSlots() > fuzzMaxSlots {
			return
		}
		in := make([]uint64, p.NumInputs()*BlockWords)
		for i := range in {
			in[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		p.EvalBlock(in, nil, nil)
	})
}
