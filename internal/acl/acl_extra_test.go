package acl

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"autoax/internal/approxgen"
	"autoax/internal/arith"
	"autoax/internal/netlist"
	"autoax/internal/pmf"
)

func TestCharacterizeLOAKnownMetrics(t *testing.T) {
	// LOA with k=1: result bit 0 = a0|b0 instead of a0^b0 and the carry
	// into bit 1 is a0&b0 (which equals the true carry).  The only error
	// case is a0=b0=1: OR gives 1, true sum bit is 0 → off by exactly 1...
	// but the carry is correct, so the error distance is 1 with
	// probability 1/4.
	c, err := Characterize(approxgen.LOAAdder(4, 1), Op{Add, 4}, "loa", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.ErrRate-0.25) > 1e-12 {
		t.Errorf("LOA k=1 error rate = %f, want 0.25", c.ErrRate)
	}
	if c.WCE != 1 {
		t.Errorf("LOA k=1 WCE = %d, want 1", c.WCE)
	}
	if math.Abs(c.MAE-0.25) > 1e-12 {
		t.Errorf("LOA k=1 MAE = %f, want 0.25", c.MAE)
	}
}

func TestScoreWMEDSupportBatching(t *testing.T) {
	// Exercise support sizes below, at, and above one 64-lane batch.
	c, err := Characterize(approxgen.TruncAdder(6, 1), Op{Add, 6}, "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range []int{3, 64, 130} {
		d := pmf.New(6, 6)
		for i := 0; i < support; i++ {
			d.Add(uint64(i%64), uint64((i*7)%64), 1)
		}
		d.Normalize()
		ScoreWMED([]*Circuit{c}, d)
		// Reference: direct weighted sum via the netlist's word function.
		f := c.Netlist.WordFunc(6, 6)
		var want float64
		d.ForEach(func(a, b uint64, w float64) {
			diff := int64(f(a, b)) - int64(a+b)
			if diff < 0 {
				diff = -diff
			}
			want += w * float64(diff)
		})
		if math.Abs(c.WMED-want) > 1e-9 {
			t.Errorf("support %d: WMED %f, want %f", support, c.WMED, want)
		}
	}
}

func TestLoadRejectsCorruptJSON(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("expected decode error")
	}
	// Structurally valid JSON with an invalid netlist (forward reference).
	bad := `{"circuits":{"add8":[{"name":"x","op":{"kind":0,"width":8},
		"netlist":{"inputs":1,"gates":[{"k":2,"a":0,"b":5}],"outputs":[1]}}]}}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("expected netlist validation error")
	}
	// A gate kind past the cell library must not load: analysis would
	// index the cell tables with it.
	badKind := `{"circuits":{"add8":[{"name":"x","op":{"kind":0,"width":8},
		"netlist":{"inputs":1,"gates":[{"k":200,"a":0,"b":0}],"outputs":[1]}}]}}`
	if _, err := LoadBytes([]byte(badKind)); err == nil {
		t.Error("expected unknown-kind validation error")
	}
	// Missing netlist.
	bad2 := `{"circuits":{"add8":[{"name":"x","op":{"kind":0,"width":8}}]}}`
	if _, err := Load(strings.NewReader(bad2)); err == nil {
		t.Error("expected missing-netlist error")
	}
	// Circuits whose key or netlist disagrees with their op: each must be
	// rejected with an error naming the circuit.
	for name, b := range misshapenLibraries(t) {
		_, err := LoadBytes(b)
		if err == nil {
			t.Errorf("%s: loaded", name)
		} else if !strings.Contains(err.Error(), "/t41") && !strings.Contains(err.Error(), "[0]") {
			t.Errorf("%s: error %q does not name the circuit", name, err)
		}
	}
}

// misshapenLibraries returns serialized libraries of one otherwise valid
// add4 circuit ("t41") that Load must reject: a circuit filed under
// another op's key, under an unsupported op, or with a netlist whose input
// or output count does not match its op; plus a null circuit.
func misshapenLibraries(t testing.TB) map[string][]byte {
	t.Helper()
	good, err := Characterize(approxgen.TruncAdder(4, 1), Op{Add, 4}, "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	good.Name = "t41"
	encode := func(key string, edit func(c *Circuit)) []byte {
		c := *good
		c.Netlist = good.Netlist.Clone()
		if edit != nil {
			edit(&c)
		}
		b, err := json.Marshal(&Library{Circuits: map[string][]*Circuit{key: {&c}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return map[string][]byte{
		"wrong key":       encode("add8", nil),
		"padded key":      encode("add04", nil),
		"unknown kind":    encode("Kind(7)4", func(c *Circuit) { c.Op.Kind = 7 }),
		"width too large": encode("add40", func(c *Circuit) { c.Op.Width = 40 }),
		"extra input":     encode("add4", func(c *Circuit) { c.Netlist.NumInputs++ }),
		"missing output": encode("add4", func(c *Circuit) {
			c.Netlist.Outputs = c.Netlist.Outputs[:len(c.Netlist.Outputs)-1]
		}),
		"extra output": encode("add4", func(c *Circuit) {
			c.Netlist.Outputs = append(c.Netlist.Outputs, c.Netlist.Outputs[0])
		}),
		"null circuit": []byte(`{"circuits":{"add4":[null]}}`),
	}
}

// FuzzLoadBytes feeds arbitrary bytes to the library decoder the server
// runs on every stored library.  Whatever LoadBytes accepts must
// re-marshal to bytes that reload and re-marshal identically, and every
// circuit's netlist must compile.
func FuzzLoadBytes(f *testing.F) {
	lib, err := Build([]BuildSpec{{Op{Add, 4}, 3}, {Op{Mul, 3}, 2}}, 1, Options{})
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(lib)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, b := range misshapenLibraries(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		lib, err := LoadBytes(b)
		if err != nil {
			return
		}
		once, err := json.Marshal(lib)
		if err != nil {
			t.Fatalf("accepted library does not marshal: %v", err)
		}
		again, err := LoadBytes(once)
		if err != nil {
			t.Fatalf("re-marshalled library does not load: %v", err)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("reload changed the library:\n%s\n%s", once, twice)
		}
		for _, cs := range lib.Circuits {
			for _, c := range cs {
				netlist.Compile(c.Netlist)
			}
		}
	})
}

func TestCharacterizeMultiplierMetrics(t *testing.T) {
	// Truncated 4×4 multiplier dropping column 0: error occurs exactly
	// when both operands are odd (a0·b0 = 1), with distance 1.
	c, err := Characterize(approxgen.TruncMultiplier(4, 1), Op{Mul, 4}, "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.ErrRate-0.25) > 1e-12 {
		t.Errorf("error rate = %f, want 0.25", c.ErrRate)
	}
	if c.WCE != 1 || math.Abs(c.MAE-0.25) > 1e-12 {
		t.Errorf("WCE %d MAE %f, want 1 / 0.25", c.WCE, c.MAE)
	}
}

func TestExactCircuitsShrinkUnderSynthesis(t *testing.T) {
	// Characterization stores the simplified netlist; for a Kogge–Stone
	// adder the CSE pass must not grow it.
	raw := arith.NewKoggeStoneAdder(8)
	c, err := Characterize(raw, Op{Add, 8}, "exact", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Netlist.Gates) > len(raw.Gates) {
		t.Errorf("synthesis grew the netlist: %d → %d", len(raw.Gates), len(c.Netlist.Gates))
	}
	if c.Gates != len(c.Netlist.Gates) {
		t.Errorf("gate count metric %d does not match netlist %d", c.Gates, len(c.Netlist.Gates))
	}
}

func TestReduceKeepsWMEDSorted(t *testing.T) {
	lib, err := Build([]BuildSpec{{Op{Add, 8}, 50}}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := Reduce(lib.For(Op{Add, 8}), pmf.Uniform(8, 8))
	for i := 1; i < len(front); i++ {
		if front[i].WMED < front[i-1].WMED {
			t.Fatal("front not sorted by WMED")
		}
		if front[i].Area >= front[i-1].Area {
			t.Fatal("front areas not strictly decreasing")
		}
	}
}
