package netlist

import (
	"encoding/json"
	"testing"

	"autoax/internal/cell"
)

func TestNetlistJSONRoundTrip(t *testing.T) {
	n := buildMajority()
	n.Name = "maj3"
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Netlist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(n, &back, 10, 0, 1); err != nil {
		t.Fatal(err)
	}
	if back.Name != "maj3" || len(back.Gates) != len(n.Gates) {
		t.Errorf("metadata lost: %+v", back)
	}
}

func TestNetlistJSONConstRails(t *testing.T) {
	// Constant rails use negative signals; they must survive JSON.
	n := &Netlist{Name: "c", NumInputs: 1, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: Const1},
	}, Outputs: []Signal{1, Const0}}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Netlist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Outputs[1] != Const0 {
		t.Errorf("const output lost: %v", back.Outputs)
	}
	if err := Equivalent(n, &back, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluatorReuse pins that EvalBlock keeps no state in reused scratch
// and output buffers between calls.
func TestEvaluatorReuse(t *testing.T) {
	n := buildMajority()
	p := Compile(n)
	scratch := make([]uint64, p.NumSlots()*BlockWords)
	out := make([]uint64, p.NumOutputs()*BlockWords)
	in := make([]uint64, n.NumInputs*BlockWords)
	for i := range in {
		in[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	first := append([]uint64(nil), p.EvalBlock(in, scratch, out)...)
	// A second evaluation with different inputs must not corrupt results.
	p.EvalBlock(make([]uint64, len(in)), scratch, out)
	second := p.EvalBlock(in, scratch, out)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("evaluation state leaked between calls")
		}
	}
}

func TestAnalyzeCellsTally(t *testing.T) {
	n := &Netlist{Name: "tally", NumInputs: 2, Gates: []Gate{
		{Kind: cell.And2, A: 0, B: 1},
		{Kind: cell.Xor2, A: 0, B: 1},
		{Kind: cell.Xor2, A: 1, B: 0},
	}, Outputs: []Signal{2, 3, 4}}
	c := n.Analyze()
	if c.Cells[cell.And2] != 1 || c.Cells[cell.Xor2] != 2 {
		t.Errorf("cell tally wrong: %v", c.Cells)
	}
	wantArea := cell.Area(cell.And2) + 2*cell.Area(cell.Xor2)
	if c.Area != wantArea {
		t.Errorf("area %f, want %f", c.Area, wantArea)
	}
}
