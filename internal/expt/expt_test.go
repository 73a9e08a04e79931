package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoax/internal/apps"
)

func tinySetup(t *testing.T) Setup {
	t.Helper()
	return Setup{Scale: ScaleTiny, Seed: 1, OutDir: t.TempDir()}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "paper"} {
		if _, err := ParseScale(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("expected error")
	}
}

func TestTable1Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinySetup(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Spot checks against the paper's Table 1.
	for _, want := range []string{"sobel", "fixedgf", "genericgf", "5", "11", "17"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2CountsPositive(t *testing.T) {
	s := tinySetup(t)
	var buf bytes.Buffer
	if err := Table2(&buf, s); err != nil {
		t.Fatal(err)
	}
	lib, err := s.Library()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range lib.Ops() {
		if len(lib.For(op)) < 2 {
			t.Errorf("%s: only %d circuits", op, len(lib.For(op)))
		}
	}
	if !strings.Contains(buf.String(), "mul8") {
		t.Error("table 2 missing mul8 row")
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	s := tinySetup(t)
	rows, err := Table3Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 13 engines + naive
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]engineRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.QoRTrain < 0 || r.QoRTrain > 1 || r.QoRTest < 0 || r.QoRTest > 1 {
			t.Errorf("%s: fidelity out of range: %+v", r.Name, r)
		}
	}
	// Headline shape: random forest beats the weak tail engines on test
	// fidelity for both models (Table 3's message).
	rf := byName["Random Forest"]
	for _, weak := range []string{"Stochastic Gradient Descent", "Kernel ridge"} {
		wr := byName[weak]
		if rf.QoRTest <= wr.QoRTest {
			t.Errorf("RF SSIM test fidelity %.3f should beat %s %.3f", rf.QoRTest, weak, wr.QoRTest)
		}
		if rf.HWTest <= wr.HWTest {
			t.Errorf("RF area test fidelity %.3f should beat %s %.3f", rf.HWTest, weak, wr.HWTest)
		}
	}
	// Tree-family train fidelity is near-perfect (memorization).
	if dt := byName["Decision Tree"]; dt.QoRTrain < 0.95 {
		t.Errorf("decision tree train fidelity %.3f, want ≈1", dt.QoRTrain)
	}
	// Naive models must be present and meaningful (>50%: correlated but
	// imperfect, per the paper's discussion).
	nv := byName["Naive model"]
	if nv.QoRTest < 0.5 || nv.HWTest < 0.5 {
		t.Errorf("naive fidelities implausible: %+v", nv)
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	rows, err := Table4Rows(tinySetup(t))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Algorithm != "Optimal Pareto" {
		t.Fatal("first row must be the optimal front")
	}
	var proposed, random []Table4Row
	for _, r := range rows[1:] {
		switch r.Algorithm {
		case "Proposed":
			proposed = append(proposed, r)
		case "Random sampling":
			random = append(random, r)
		}
	}
	if len(proposed) == 0 || len(random) == 0 {
		t.Fatal("missing rows")
	}
	// More evaluations → closer to optimal (monotone in the budget).
	for i := 1; i < len(proposed); i++ {
		if proposed[i].FromAvg > proposed[i-1].FromAvg+1e-9 {
			t.Errorf("proposed FromAvg not improving: %+v", proposed)
		}
	}
	// At the largest shared budget the proposed beats random sampling.
	lp, lr := proposed[len(proposed)-1], random[len(random)-1]
	if lp.FromAvg >= lr.FromAvg {
		t.Errorf("proposed FromAvg %.5f should beat random %.5f", lp.FromAvg, lr.FromAvg)
	}
	if lp.Pareto <= lr.Pareto {
		t.Errorf("proposed found %d front members, random %d", lp.Pareto, lr.Pareto)
	}
}

func TestFigure3EmitsHeatmapsAndCSV(t *testing.T) {
	s := tinySetup(t)
	var buf bytes.Buffer
	if err := Figure3(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, op := range []string{"add1", "add2", "add3", "add4", "sub"} {
		if !strings.Contains(out, op) {
			t.Errorf("missing operation %s in Figure 3 output", op)
		}
	}
	if _, err := os.Stat(filepath.Join(s.OutDir, "figure3_add1.csv")); err != nil {
		t.Errorf("missing CSV: %v", err)
	}
}

func TestFigure4Correlations(t *testing.T) {
	s := tinySetup(t)
	var buf bytes.Buffer
	if err := Figure4(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Random Forest") {
		t.Error("figure 4 missing RF row")
	}
	if _, err := os.Stat(filepath.Join(s.OutDir, "figure4_random_forest.csv")); err != nil {
		t.Errorf("missing CSV: %v", err)
	}
}

func TestTable5AndFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three pipelines")
	}
	s := tinySetup(t)
	var buf bytes.Buffer
	if err := Table5(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range apps.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("Table 5 missing %s", name)
		}
	}
	buf.Reset()
	if err := Figure5(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"proposed", "random", "uniform"} {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("Figure 5 missing method %s", m)
		}
	}
	if _, err := os.Stat(filepath.Join(s.OutDir, "figure5_sobel_proposed.csv")); err != nil {
		t.Errorf("missing CSV: %v", err)
	}
}

func TestCacheSharesLibrary(t *testing.T) {
	s := Setup{Scale: ScaleTiny, Seed: 1}
	l1, err := s.Library()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Library()
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("library not cached")
	}
}
