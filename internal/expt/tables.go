package expt

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/dse"
	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// Table1 prints the number of operations in the target accelerators.
func Table1(w io.Writer, s Setup) error {
	fmt.Fprintln(w, "Table 1: The number of operations in target accelerators")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Problem\tadd8\tadd9\tadd16\tsub10\tsub16\tmul8\tTotal")
	for _, name := range apps.Names() {
		app, err := s.App(name)
		if err != nil {
			return err
		}
		counts := app.Graph.OpCounts()
		total := 0
		for _, n := range counts {
			total += n
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", app.Name,
			counts[add8], counts[add9], counts[add16], counts[sub10], counts[sub16], counts[mul8], total)
	}
	return tw.Flush()
}

// Table2 builds the library and prints the circuit counts per operation
// instance (requested generator budget vs unique circuits surviving
// behavioural deduplication).
func Table2(w io.Writer, s Setup) error {
	lib, err := s.Library()
	if err != nil {
		return err
	}
	p := s.params()
	fmt.Fprintf(w, "Table 2: Approximate circuits included in the library (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instance\trequested\t# implementations")
	for _, op := range []acl.Op{add8, add9, add16, sub10, sub16, mul8} {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", op, p.libCounts[op], len(lib.For(op)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "total: %d circuits\n", lib.Size())
	return nil
}

// engineRow is one Table 3 line.
type engineRow struct {
	Name                               string
	QoRTrain, QoRTest, HWTrain, HWTest float64
}

// Table3Rows computes the fidelity of every learning engine (plus the
// naïve models) for the Sobel detector.  Exported for tests and reuse by
// Figure 4.
func Table3Rows(s Setup) ([]engineRow, error) {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return nil, err
	}
	xqTr, yqTr, xhTr, yhTr := dse.BuildTrainingData(pipe.Space, pipe.TrainCfgs, pipe.TrainRes)
	xqTe, yqTe, xhTe, yhTe := dse.BuildTrainingData(pipe.Space, pipe.TestCfgs, pipe.TestRes)

	fit := func(r ml.Regressor, x [][]float64, y []float64, xt [][]float64, yt []float64) (train, test float64) {
		if err := r.Fit(x, y); err != nil {
			return 0, 0
		}
		return dse.ModelFidelity(r, x, y), dse.ModelFidelity(r, xt, yt)
	}

	var rows []engineRow
	for _, spec := range ml.Engines() {
		row := engineRow{Name: spec.Name}
		row.QoRTrain, row.QoRTest = fit(spec.New(s.Seed), xqTr, yqTr, xqTe, yqTe)
		row.HWTrain, row.HWTest = fit(spec.New(s.Seed+1), xhTr, yhTr, xhTe, yhTe)
		rows = append(rows, row)
	}
	naive := engineRow{Name: "Naive model"}
	naive.QoRTrain, naive.QoRTest = fit(dse.NaiveSSIM{}, xqTr, yqTr, xqTe, yqTe)
	naive.HWTrain, naive.HWTest = fit(&dse.NaiveArea{}, xhTr, yhTr, xhTe, yhTe)
	rows = append(rows, naive)

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].QoRTest > rows[j].QoRTest })
	return rows, nil
}

// Table3 prints the fidelity of QoR (SSIM) and hardware (area) models for
// the Sobel edge detector across all learning engines.
func Table3(w io.Writer, s Setup) error {
	rows, err := Table3Rows(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 3: Fidelity of models for Sobel ED by learning engine (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Learning algorithm\tSSIM train\tSSIM test\tArea train\tArea test")
	var csv [][]string
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n", r.Name,
			100*r.QoRTrain, 100*r.QoRTest, 100*r.HWTrain, 100*r.HWTest)
		csv = append(csv, []string{r.Name, ftoa(r.QoRTrain, 4), ftoa(r.QoRTest, 4), ftoa(r.HWTrain, 4), ftoa(r.HWTest, 4)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("table3.csv", []string{"engine", "ssim_train", "ssim_test", "area_train", "area_test"}, csv)
}

// cappedSpace thins each reduced library to at most cap circuits, evenly
// spaced along the WMED order, so the exhaustive optimum of Table 4 stays
// enumerable.
func cappedSpace(space dse.Space, cap int) dse.Space {
	out := make(dse.Space, len(space))
	for k, lib := range space {
		if len(lib) <= cap {
			out[k] = lib
			continue
		}
		sel := make([]*acl.Circuit, 0, cap)
		for i := 0; i < cap; i++ {
			idx := i * (len(lib) - 1) / (cap - 1)
			sel = append(sel, lib[idx])
		}
		out[k] = sel
	}
	return out
}

// Table4Row is one line of the search-quality comparison.
type Table4Row struct {
	Algorithm                      string
	Evals                          int
	Pareto                         int
	ToAvg, ToMax, FromAvg, FromMax float64
}

// Table4Rows runs the Table 4 comparison: distances of the proposed
// hill-climbing and random-sampling fronts from the exhaustively
// enumerated optimal front, in estimated-objective space.
func Table4Rows(s Setup) ([]Table4Row, error) {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return nil, err
	}
	p := s.params()
	space := cappedSpace(pipe.Space, p.table4Cap)
	models := &dse.Models{QoR: pipe.Models.QoR, HW: pipe.Models.HW, Space: space}

	optimal, err := dse.Exhaustive(models)
	if err != nil {
		return nil, err
	}
	rows := []Table4Row{{
		Algorithm: "Optimal Pareto",
		Evals:     int(space.NumConfigs()),
		Pareto:    optimal.Len(),
	}}
	// The "Proposed" rows go through the pluggable engine seam so an
	// engine-switched Setup compares its search against the same optimum.
	eng, err := dse.SearchEngineByName(s.SearchEngine)
	if err != nil {
		return nil, err
	}
	label := "Proposed"
	if eng.Name() != dse.DefaultEngineName {
		label = "Proposed (" + eng.Name() + ")"
	}
	for _, budget := range p.table4Budgets {
		hc, err := eng.Run(context.Background(), models, dse.SearchOptions{Evaluations: budget, Seed: s.Seed + 10})
		if err != nil {
			return nil, err
		}
		d := pareto.FrontDistances(hc.Points(), optimal.Points())
		rows = append(rows, Table4Row{label, budget, hc.Len(), d.ToAvg, d.ToMax, d.FromAvg, d.FromMax})
	}
	for _, budget := range p.table4Budgets {
		rs, err := dse.RunEngine(context.Background(), "random", models, dse.SearchOptions{Evaluations: budget, Seed: s.Seed + 10})
		if err != nil {
			return nil, err
		}
		d := pareto.FrontDistances(rs.Points(), optimal.Points())
		rows = append(rows, Table4Row{"Random sampling", budget, rs.Len(), d.ToAvg, d.ToMax, d.FromAvg, d.FromMax})
	}
	return rows, nil
}

// Table4 prints the distances of the proposed algorithm and random search
// from the optimal Pareto front at increasing evaluation budgets.
func Table4(w io.Writer, s Setup) error {
	rows, err := Table4Rows(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 4: Distance from the optimal Pareto front, estimated-objective space (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Algorithm\t#eval\t#Pareto\tTo avg\tTo max\tFrom avg\tFrom max")
	var csv [][]string
	for _, r := range rows {
		if r.Algorithm == "Optimal Pareto" {
			fmt.Fprintf(tw, "%s\t%d\t%d\t—\t—\t—\t—\n", r.Algorithm, r.Evals, r.Pareto)
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.5f\t%.5f\t%.5f\t%.5f\n",
				r.Algorithm, r.Evals, r.Pareto, r.ToAvg, r.ToMax, r.FromAvg, r.FromMax)
		}
		csv = append(csv, []string{r.Algorithm, fmt.Sprint(r.Evals), fmt.Sprint(r.Pareto),
			ftoa(r.ToAvg, 6), ftoa(r.ToMax, 6), ftoa(r.FromAvg, 6), ftoa(r.FromMax, 6)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("table4.csv", []string{"algorithm", "evals", "pareto", "to_avg", "to_max", "from_avg", "from_max"}, csv)
}

// Table5 prints the design-space size after each methodology step for all
// three accelerators.
func Table5(w io.Writer, s Setup) error {
	lib, err := s.Library()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 5: Size of the design space after each step (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tall possible\tlib. pre-processing\tpseudo Pareto\tfinal Pareto")
	var csv [][]string
	for _, name := range apps.Names() {
		pipe, err := s.Pipeline(name)
		if err != nil {
			return err
		}
		all := 1.0
		for _, id := range pipe.App.Graph.OpNodes() {
			all *= float64(len(lib.For(pipe.App.Graph.Nodes[id].Op)))
		}
		reduced := pipe.Space.NumConfigs()
		fmt.Fprintf(tw, "%s\t%.2e\t%.2e\t%d\t%d\n", name, all, reduced, pipe.Pseudo.Len(), len(pipe.FinalFront))
		csv = append(csv, []string{name, ftoa(all, 0), ftoa(reduced, 0),
			fmt.Sprint(pipe.Pseudo.Len()), fmt.Sprint(len(pipe.FinalFront))})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("table5.csv", []string{"application", "all", "reduced", "pseudo", "final"}, csv)
}
