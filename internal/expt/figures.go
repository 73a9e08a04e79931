package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"autoax/internal/accel"
	"autoax/internal/apps"
	"autoax/internal/dse"
	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// Figure3 profiles the Sobel detector and reports the operand PMFs of its
// operations: diagonal concentration statistics, an ASCII heat map per
// operation, and (with OutDir) downsampled CSV grids matching the paper's
// add1/add2/sub panels.
func Figure3(w io.Writer, s Setup) error {
	app, err := s.App("sobel")
	if err != nil {
		return err
	}
	images := s.Images()
	pmfs := app.Profile(images)
	ops := app.Graph.OpNodes()
	fmt.Fprintf(w, "Figure 3: PMFs of operations in the Sobel ED (scale=%s)\n", s.Scale)
	for i, id := range ops {
		node := app.Graph.Nodes[id]
		p := pmfs[i]
		var nearDiag, total float64
		p.ForEach(func(a, b uint64, wt float64) {
			d := int64(a) - int64(b)
			if d < 0 {
				d = -d
			}
			span := int64(1) << uint(node.Op.Width-3) // within 1/8 of range
			if d <= span {
				nearDiag += wt
			}
			total += wt
		})
		fmt.Fprintf(w, "\n%s (%s): support %d pairs, %.1f%% of mass within 1/8 of the diagonal\n",
			node.Name, node.Op, p.SupportSize(), 100*nearDiag/total)
		printHeat(w, p.Downsample(16))
		grid := p.Downsample(64)
		var rows [][]string
		for a := range grid {
			for b := range grid[a] {
				if grid[a][b] != 0 {
					rows = append(rows, []string{fmt.Sprint(a), fmt.Sprint(b), ftoa(grid[a][b], 9)})
				}
			}
		}
		if err := s.writeCSV(fmt.Sprintf("figure3_%s.csv", node.Name), []string{"bin_a", "bin_b", "mass"}, rows); err != nil {
			return err
		}
	}
	return nil
}

// printHeat renders a downsampled PMF as a log-scaled ASCII heat map
// (operand 1 rows, operand 2 columns — like the paper's panels).
func printHeat(w io.Writer, grid [][]float64) {
	shades := []byte(" .:-=+*#%@")
	maxV := 0.0
	for _, row := range grid {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		return
	}
	for i := len(grid) - 1; i >= 0; i-- { // operand 1 increases upward
		fmt.Fprint(w, "  ")
		for _, v := range grid[i] {
			if v == 0 {
				fmt.Fprint(w, "  ")
				continue
			}
			// log scale over 6 decades.
			t := 1 + math.Log10(v/maxV)/6
			if t < 0 {
				t = 0
			}
			idx := int(t * float64(len(shades)-1))
			fmt.Fprintf(w, "%c%c", shades[idx], shades[idx])
		}
		fmt.Fprintln(w)
	}
}

// Figure4 reports the correlation between estimated and real area for
// selected engines on the Sobel test configurations; with OutDir it emits
// the scatter series the paper plots.
func Figure4(w io.Writer, s Setup) error {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return err
	}
	_, _, xhTr, yhTr := dse.BuildTrainingData(pipe.Space, pipe.TrainCfgs, pipe.TrainRes)
	_, _, xhTe, yhTe := dse.BuildTrainingData(pipe.Space, pipe.TestCfgs, pipe.TestRes)

	type sel struct {
		name string
		mk   func() ml.Regressor
	}
	selected := []sel{
		{"Random Forest", func() ml.Regressor { return ml.NewRandomForest(100, s.Seed) }},
		{"Decision Tree", func() ml.Regressor { return ml.NewDecisionTree(0, 2) }},
		{"MLP neural network", func() ml.Regressor { return ml.NewMLP([]int{100}, 200, s.Seed) }},
		{"Naive model", func() ml.Regressor { return &dse.NaiveArea{} }},
	}
	fmt.Fprintf(w, "Figure 4: Correlation of estimated vs real area, Sobel ED (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Engine\tPearson r\tfidelity")
	for _, e := range selected {
		r := e.mk()
		if err := r.Fit(xhTr, yhTr); err != nil {
			return fmt.Errorf("expt: %s: %w", e.name, err)
		}
		pred := ml.PredictAll(r, xhTe)
		fmt.Fprintf(tw, "%s\t%.4f\t%.0f%%\n", e.name, ml.Pearson(pred, yhTe), 100*ml.Fidelity(pred, yhTe))
		var rows [][]string
		for i := range pred {
			rows = append(rows, []string{ftoa(yhTe[i], 3), ftoa(pred[i], 3)})
		}
		if err := s.writeCSV(fmt.Sprintf("figure4_%s.csv", sanitize(e.name)), []string{"real_area", "estimated_area"}, rows); err != nil {
			return err
		}
	}
	return tw.Flush()
}

func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// FrontSeries is one method's final front for Figure 5.
type FrontSeries struct {
	Method  string
	Results []accel.Result // Pareto-optimal on real (SSIM, area, energy)
}

// Figure5App computes the three fronts (proposed, random sampling,
// uniform selection) for one application on real measured objectives.
// The random-sampling baseline receives the same precise-evaluation budget
// that the proposed method spends on its final stage.
func Figure5App(s Setup, name string) ([]FrontSeries, error) {
	pipe, err := s.Pipeline(name)
	if err != nil {
		return nil, err
	}
	_, proposed := pipe.FrontResults()

	budget := len(pipe.FinalCfgs)
	if budget == 0 {
		budget = 1
	}
	rsCfgs := pipe.Space.RandomConfigs(budget, s.Seed+77)
	rsRes, err := dse.EvaluateAll(context.Background(), pipe.Ev, pipe.Space, rsCfgs, nil)
	if err != nil {
		return nil, err
	}

	p := s.params()
	uniCfgs := dse.UniformSelection(pipe.Space, p.uniformLevels)
	uniRes, err := dse.EvaluateAll(context.Background(), pipe.Ev, pipe.Space, uniCfgs, nil)
	if err != nil {
		return nil, err
	}

	frontOf := func(res []accel.Result) []accel.Result {
		pts := make([]pareto.Point, len(res))
		for i, r := range res {
			pts[i] = pareto.Point{-r.SSIM, r.Area, r.Energy}
		}
		var out []accel.Result
		for _, i := range pareto.Front(pts) {
			out = append(out, res[i])
		}
		return out
	}
	return []FrontSeries{
		{"proposed", proposed},
		{"random", frontOf(rsRes)},
		{"uniform", frontOf(uniRes)},
	}, nil
}

// Figure5 prints the Pareto fronts (SSIM vs area vs energy) obtained by
// the proposed method, random sampling and uniform selection for all
// three accelerators, with 2-D hypervolume summaries.
func Figure5(w io.Writer, s Setup) error {
	fmt.Fprintf(w, "Figure 5: Pareto fronts by method (scale=%s)\n", s.Scale)
	for _, name := range apps.Names() {
		series, err := Figure5App(s, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s:\n", name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "method\t#front\tbest SSIM\tmin area\tHV(SSIM,area)\tHV(SSIM,energy)")
		// Common references for hypervolume across methods.
		maxArea, maxEnergy := 0.0, 0.0
		for _, fs := range series {
			for _, r := range fs.Results {
				maxArea = math.Max(maxArea, r.Area)
				maxEnergy = math.Max(maxEnergy, r.Energy)
			}
		}
		refA := pareto.Point{0, maxArea * 1.05}
		refE := pareto.Point{0, maxEnergy * 1.05}
		for _, fs := range series {
			var ptsA, ptsE []pareto.Point
			best, minArea := 0.0, math.Inf(1)
			var rows [][]string
			for _, r := range fs.Results {
				ptsA = append(ptsA, pareto.Point{-r.SSIM, r.Area})
				ptsE = append(ptsE, pareto.Point{-r.SSIM, r.Energy})
				best = math.Max(best, r.SSIM)
				minArea = math.Min(minArea, r.Area)
				rows = append(rows, []string{ftoa(r.SSIM, 5), ftoa(r.Area, 2), ftoa(r.Energy, 2)})
			}
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.1f\t%.4g\t%.4g\n", fs.Method, len(fs.Results), best, minArea,
				pareto.Hypervolume2D(ptsA, refA), pareto.Hypervolume2D(ptsE, refE))
			if err := s.writeCSV(fmt.Sprintf("figure5_%s_%s.csv", name, fs.Method),
				[]string{"ssim", "area", "energy"}, rows); err != nil {
				return err
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every driver in paper order.
func RunAll(w io.Writer, s Setup) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Setup) error
	}{
		{"Table 1", Table1},
		{"Table 2", Table2},
		{"Figure 3", Figure3},
		{"Table 3", Table3},
		{"Figure 4", Figure4},
		{"Table 4", Table4},
		{"Table 5", Table5},
		{"Figure 5", Figure5},
		{"Ablation: QoR features", AblationQoRFeatures},
		{"Ablation: HW features", AblationHWFeatures},
		{"Ablation: stagnation threshold", AblationStagnation},
	}
	for _, st := range steps {
		fmt.Fprintf(w, "\n==== %s ====\n", st.name)
		if err := st.fn(w, s); err != nil {
			return fmt.Errorf("expt: %s: %w", st.name, err)
		}
	}
	return nil
}
