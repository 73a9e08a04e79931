package expt

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"autoax/internal/acl"
	"autoax/internal/dse"
	"autoax/internal/ml"
	"autoax/internal/pareto"
)

// ablationFeatures builds a feature matrix by applying pick to every
// selected circuit of every configuration and concatenating the results.
func ablationFeatures(space dse.Space, cfgs [][]int, pick func(c *acl.Circuit) []float64) [][]float64 {
	out := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		var row []float64
		for k, idx := range cfg {
			row = append(row, pick(space[k][idx])...)
		}
		out[i] = row
	}
	return out
}

// AblationHWFeatures reproduces the paper's §4.1.2 hardware-model feature
// study: training the winning engine with area-only, area+power, and
// area+power+delay inputs.  The paper observed that omitting power and
// delay loses about 2% fidelity.
func AblationHWFeatures(w io.Writer, s Setup) error {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return err
	}
	picks := []struct {
		name string
		pick func(c *acl.Circuit) []float64
	}{
		{"area only", func(c *acl.Circuit) []float64 { return []float64{c.Area} }},
		{"area+power", func(c *acl.Circuit) []float64 { return []float64{c.Area, c.Power} }},
		{"area+power+delay", func(c *acl.Circuit) []float64 { return []float64{c.Area, c.Power, c.Delay} }},
	}
	yTr := make([]float64, len(pipe.TrainRes))
	for i, r := range pipe.TrainRes {
		yTr[i] = r.Area
	}
	yTe := make([]float64, len(pipe.TestRes))
	for i, r := range pipe.TestRes {
		yTe[i] = r.Area
	}
	fmt.Fprintf(w, "Ablation: HW-model input features, Sobel ED, random forest (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "features\ttrain fidelity\ttest fidelity")
	var csv [][]string
	for _, p := range picks {
		xTr := ablationFeatures(pipe.Space, pipe.TrainCfgs, p.pick)
		xTe := ablationFeatures(pipe.Space, pipe.TestCfgs, p.pick)
		rf := ml.NewRandomForest(100, s.Seed)
		if err := rf.Fit(xTr, yTr); err != nil {
			return err
		}
		tr := dse.ModelFidelity(rf, xTr, yTr)
		te := dse.ModelFidelity(rf, xTe, yTe)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n", p.name, 100*tr, 100*te)
		csv = append(csv, []string{p.name, ftoa(tr, 4), ftoa(te, 4)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("ablation_hw_features.csv", []string{"features", "train", "test"}, csv)
}

// AblationQoRFeatures reproduces the paper's QoR-model feature study:
// adding further error metrics (MSE, worst-case error, error rate) to the
// WMED inputs, which the paper found does not improve fidelity.
func AblationQoRFeatures(w io.Writer, s Setup) error {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return err
	}
	picks := []struct {
		name string
		pick func(c *acl.Circuit) []float64
	}{
		{"WMED", func(c *acl.Circuit) []float64 { return []float64{c.WMED} }},
		{"WMED+MSE", func(c *acl.Circuit) []float64 { return []float64{c.WMED, c.MSE} }},
		{"WMED+MSE+WCE+errRate", func(c *acl.Circuit) []float64 {
			return []float64{c.WMED, c.MSE, float64(c.WCE), c.ErrRate}
		}},
	}
	yTr := make([]float64, len(pipe.TrainRes))
	for i, r := range pipe.TrainRes {
		yTr[i] = r.SSIM
	}
	yTe := make([]float64, len(pipe.TestRes))
	for i, r := range pipe.TestRes {
		yTe[i] = r.SSIM
	}
	fmt.Fprintf(w, "Ablation: QoR-model input features, Sobel ED, random forest (scale=%s)\n", s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "features\ttrain fidelity\ttest fidelity")
	var csv [][]string
	for _, p := range picks {
		xTr := ablationFeatures(pipe.Space, pipe.TrainCfgs, p.pick)
		xTe := ablationFeatures(pipe.Space, pipe.TestCfgs, p.pick)
		rf := ml.NewRandomForest(100, s.Seed)
		if err := rf.Fit(xTr, yTr); err != nil {
			return err
		}
		tr := dse.ModelFidelity(rf, xTr, yTr)
		te := dse.ModelFidelity(rf, xTe, yTe)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n", p.name, 100*tr, 100*te)
		csv = append(csv, []string{p.name, ftoa(tr, 4), ftoa(te, 4)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("ablation_qor_features.csv", []string{"features", "train", "test"}, csv)
}

// AblationStagnation studies Algorithm 1's restart threshold k (the paper
// fixes k = 50): front size and distance from the exhaustive optimum for a
// range of thresholds at a fixed budget.
func AblationStagnation(w io.Writer, s Setup) error {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return err
	}
	p := s.params()
	space := cappedSpace(pipe.Space, p.table4Cap)
	models := &dse.Models{QoR: pipe.Models.QoR, HW: pipe.Models.HW, Space: space}
	optimal, err := dse.Exhaustive(models)
	if err != nil {
		return err
	}
	budget := p.table4Budgets[len(p.table4Budgets)-1]
	fmt.Fprintf(w, "Ablation: stagnation threshold k of Algorithm 1, budget %d (scale=%s)\n", budget, s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\t#Pareto\tFrom avg\tFrom max")
	var csv [][]string
	for _, k := range []int{5, 20, 50, 200, 1 << 30} {
		hc, err := dse.RunEngine(context.Background(), s.SearchEngine, models,
			dse.SearchOptions{Evaluations: budget, Stagnation: k, Seed: s.Seed + 31})
		if err != nil {
			return err
		}
		d := pareto.FrontDistances(hc.Points(), optimal.Points())
		label := fmt.Sprint(k)
		if k == 1<<30 {
			label = "∞ (no restarts)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.5f\t%.5f\n", label, hc.Len(), d.FromAvg, d.FromMax)
		csv = append(csv, []string{label, fmt.Sprint(hc.Len()), ftoa(d.FromAvg, 6), ftoa(d.FromMax, 6)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("ablation_stagnation.csv", []string{"k", "pareto", "from_avg", "from_max"}, csv)
}

// AblationEngines compares every search engine on the capped
// Sobel space at the largest Table 4 budget: front size and distance from
// the exhaustive optimum, all engines seeing identical models and seed.
func AblationEngines(w io.Writer, s Setup) error {
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		return err
	}
	p := s.params()
	space := cappedSpace(pipe.Space, p.table4Cap)
	models := &dse.Models{QoR: pipe.Models.QoR, HW: pipe.Models.HW, Space: space}
	optimal, err := dse.Exhaustive(models)
	if err != nil {
		return err
	}
	budget := p.table4Budgets[len(p.table4Budgets)-1]
	fmt.Fprintf(w, "Ablation: search engines at budget %d (scale=%s)\n", budget, s.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Engine\t#Pareto\tFrom avg\tFrom max")
	var csv [][]string
	for _, name := range dse.SearchEngines() {
		arch, err := dse.RunEngine(context.Background(), name, models,
			dse.SearchOptions{Evaluations: budget, Seed: s.Seed + 10})
		if err != nil {
			return err
		}
		d := pareto.FrontDistances(arch.Points(), optimal.Points())
		fmt.Fprintf(tw, "%s\t%d\t%.5f\t%.5f\n", name, arch.Len(), d.FromAvg, d.FromMax)
		csv = append(csv, []string{name, fmt.Sprint(arch.Len()), ftoa(d.FromAvg, 6), ftoa(d.FromMax, 6)})
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return s.writeCSV("ablation_engines.csv", []string{"engine", "pareto", "from_avg", "from_max"}, csv)
}
