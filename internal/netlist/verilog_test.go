package netlist

import (
	"strings"
	"testing"

	"autoax/internal/cell"
)

func TestWriteVerilogStructure(t *testing.T) {
	n := buildMajority()
	var b strings.Builder
	if err := n.WriteVerilog(&b, "maj3"); err != nil {
		t.Fatal(err)
	}
	v := b.String()
	for _, s := range []string{
		"module maj3(",
		"input  wire [2:0] in",
		"output wire [0:0] out",
		"assign out[0] =",
		"endmodule",
	} {
		if !strings.Contains(v, s) {
			t.Errorf("verilog missing %q:\n%s", s, v)
		}
	}
	// One assign per gate plus one per output.
	if got := strings.Count(v, "assign"); got != len(n.Gates)+len(n.Outputs) {
		t.Errorf("%d assigns, want %d", got, len(n.Gates)+len(n.Outputs))
	}
}

func TestWriteVerilogAllKinds(t *testing.T) {
	// Every cell kind must have a Verilog form.
	for k := cell.Kind(0); int(k) < cell.NumKinds; k++ {
		n := &Netlist{Name: "k", NumInputs: 3}
		n.Gates = []Gate{{Kind: k, A: 0, B: 1, C: 2}}
		n.Outputs = []Signal{3}
		var b strings.Builder
		if err := n.WriteVerilog(&b, ""); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestWriteVerilogConstRails(t *testing.T) {
	n := &Netlist{Name: "c", NumInputs: 1, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: Const1},
	}, Outputs: []Signal{1, Const0}}
	var sb strings.Builder
	if err := n.WriteVerilog(&sb, "consts"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if !strings.Contains(v, "1'b1") || !strings.Contains(v, "assign out[1] = 1'b0;") {
		t.Errorf("constant rails not emitted:\n%s", v)
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"add8_rca":      "add8_rca",
		"mul8 bam(2,3)": "mul8_bam_2_3_",
		"8bit":          "_8bit",
		"":              "",
	}
	for in, want := range cases {
		if got := sanitizeIdent(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
