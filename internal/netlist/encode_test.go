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
// encodes; the decoder fuzz target is seeded with the same encodings.
func roundTripNetlists() []*Netlist {
	rng := rand.New(rand.NewSource(17))
	ns := make([]*Netlist, 120)
	for i := range ns {
		ns[i] = randomNetlist(rng, 1+rng.Intn(8), rng.Intn(50))
	}
	return ns
}

// TestEncodeRoundTrip pins the netlist codec: a netlist survives
// encode→decode with evaluation-identical results, and the decoder
// consumes exactly its own bytes.
func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial, n := range roundTripNetlists() {
		buf := append(n.AppendBinary(nil), 0xEE) // trailing byte must survive untouched
		dn, rest, err := DecodeNetlist(buf)
		if err != nil {
			t.Fatalf("trial %d: DecodeNetlist: %v", trial, err)
		}
		if len(rest) != 1 || rest[0] != 0xEE {
			t.Fatalf("trial %d: codec consumed wrong byte count", trial)
		}
		if dn.Name != n.Name || dn.NumInputs != n.NumInputs || len(dn.Gates) != len(n.Gates) || len(dn.Outputs) != len(n.Outputs) {
			t.Fatalf("trial %d: netlist shape drifted", trial)
		}
		in := make([]uint64, n.NumInputs*BlockWords)
		for i := range in {
			in[i] = rng.Uint64()
		}
		want := Compile(n).EvalBlock(in, nil, nil)
		got := Compile(dn).EvalBlock(in, nil, nil)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("trial %d: decoded netlist diverged at %d: %x vs %x", trial, j, got[j], want[j])
			}
		}
	}
}

// TestDecodeNetlistRejectsTruncation pins that every strict prefix of an
// encoded netlist fails to decode, and that garbage never panics.
func TestDecodeNetlistRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nb := randomNetlist(rng, 5, 30).AppendBinary(nil)
	for cut := 0; cut < len(nb); cut++ {
		if _, _, err := DecodeNetlist(nb[:cut]); err == nil {
			t.Fatalf("netlist truncation to %d/%d bytes decoded successfully", cut, len(nb))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		g := make([]byte, rng.Intn(200))
		rng.Read(g)
		DecodeNetlist(g)
	}
}

// fuzzMaxSlots bounds the netlists the decoder fuzz target runs:
// a few header bytes can declare millions of inputs, and evaluating those
// would only measure the allocator.
const fuzzMaxSlots = 1 << 12

// tinyProgPayload returns the payload of the golden program-directory
// entry: one encoded netlist.
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
		blockActivity(n, [][]uint64{in}, []int{BlockWords * 64})
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
