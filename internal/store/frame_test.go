package store

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"testing"
)

// The two frame kinds persisted today: write-ahead journal records and
// program-directory entries (one simplified netlist each).  testdata holds one of each, as the journal
// and the program directory write them.
var (
	journalMagic = [4]byte{'a', 'x', 'j', 'l'}
	progMagic    = [4]byte{'a', 'x', 'p', 'g'}
	frameKinds   = []struct {
		file    string
		magic   [4]byte
		version uint32
	}{
		{"testdata/journal.frame", journalMagic, 1},
		{"testdata/tiny.prog", progMagic, 4},
	}
)

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameGolden pins the frame bytes: the golden files parse, re-encode
// byte for byte, and carry the pinned header and checksum.
func TestFrameGolden(t *testing.T) {
	pins := map[string][2]string{ // header, FNV-1a trailer
		"testdata/journal.frame": {"61786a6c010000009000000000000000", "0077c95fc1b08921"},
		"testdata/tiny.prog":     {"61787067040000000802000000000000", "eff7d9dfc73aaf3b"},
	}
	for _, k := range frameKinds {
		buf := readTestdata(t, k.file)
		if got := hex.EncodeToString(buf[:16]); got != pins[k.file][0] {
			t.Errorf("%s: header %s, want %s", k.file, got, pins[k.file][0])
		}
		if got := hex.EncodeToString(buf[len(buf)-8:]); got != pins[k.file][1] {
			t.Errorf("%s: checksum %s, want %s", k.file, got, pins[k.file][1])
		}
		payload, n, err := ReadFrame(buf, k.magic, k.version, math.MaxUint64)
		if err != nil || n != len(buf) {
			t.Fatalf("%s: ReadFrame = (%d, %v), want the whole %d-byte file", k.file, n, err, len(buf))
		}
		if re := AppendFrame(nil, k.magic, k.version, payload); !bytes.Equal(re, buf) {
			t.Errorf("%s: re-encoding differs from the golden bytes", k.file)
		}
	}
}

// TestReadFrameRejects covers each failure: short buffer, foreign magic,
// version mismatch, a length past the buffer or past maxPayload, and
// every single-byte flip of a valid frame.
func TestReadFrameRejects(t *testing.T) {
	good := AppendFrame([]byte("prefix"), journalMagic, 1, []byte(`{"type":"seq","seq":7}`))[len("prefix"):]
	if _, n, err := ReadFrame(append(good, "next"...), journalMagic, 1, 1<<20); err != nil || n != len(good) {
		t.Fatalf("valid frame with trailing bytes: n=%d err=%v", n, err)
	}
	cases := map[string]struct {
		buf        []byte
		magic      [4]byte
		version    uint32
		maxPayload uint64
	}{
		"short":       {good[:frameOverhead-1], journalMagic, 1, 1 << 20},
		"magic":       {good, progMagic, 1, 1 << 20},
		"version":     {good, journalMagic, 2, 1 << 20},
		"truncated":   {good[:len(good)-1], journalMagic, 1, 1 << 20},
		"over budget": {good, journalMagic, 1, 4},
	}
	for name, c := range cases {
		if _, _, err := ReadFrame(c.buf, c.magic, c.version, c.maxPayload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for i := range good {
		mut := bytes.Clone(good)
		mut[i] ^= 0x01
		if _, _, err := ReadFrame(mut, journalMagic, 1, 1<<20); err == nil {
			t.Errorf("flip at byte %d accepted", i)
		}
	}
}

// FuzzReadFrame: ReadFrame never panics on arbitrary bytes, and every
// frame it accepts re-encodes to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, k := range frameKinds {
		f.Add(readTestdata(f, k.file))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, k := range frameKinds {
			payload, n, err := ReadFrame(buf, k.magic, k.version, 1<<20)
			if err != nil {
				continue
			}
			if re := AppendFrame(nil, k.magic, k.version, payload); !bytes.Equal(re, buf[:n]) {
				t.Fatalf("accepted frame re-encodes to %x, consumed %x", re, buf[:n])
			}
		}
	})
}
