package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"autoax/axclient"
	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/axserver"
	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/imagedata"
	"autoax/internal/pareto"
)

// Verifiers check every succeeded job after the measured phase and store
// a failure in the job's err, so it counts as failed.  They also fill the
// job's hypervolume (front_hv) and pipeline fidelity.  A returned error
// means the check itself could not run.

// hvRef is the reference point of every 2-D hypervolume: both objectives
// are normalized so that 1 is the worst value.
var hvRef = pareto.Point{1, 1}

func verifyLibraries(ctx context.Context, e *env, runs []*jobRun) error {
	for _, r := range runs {
		if r.ok() {
			r.err = checkLibrary(ctx, e, r)
		}
	}
	return nil
}

// checkLibrary: the result key is the request's canonical key, and the
// artifact fetched by that key parses with the reported op counts.  hv is
// the mean over ops of the (MAE ÷ output range, area ÷ largest area)
// hypervolume of the op's circuits.
func checkLibrary(ctx context.Context, e *env, r *jobRun) error {
	req := r.req.body.(axserver.LibraryRequest)
	res, err := axclient.LibraryResultOf(r.info)
	if err != nil {
		return err
	}
	key, err := req.Key()
	if err != nil {
		return err
	}
	if res.Key != key {
		return fmt.Errorf("library result key %s, request key %s", res.Key, key)
	}
	b, err := e.client.Library(ctx, res.Key)
	if err != nil {
		return err
	}
	lib, err := acl.LoadBytes(b)
	if err != nil {
		return err
	}
	if lib.Size() != res.Size || len(lib.Circuits) != len(res.Ops) {
		return fmt.Errorf("library %s: %d circuits in %d ops, result reports %d in %d",
			key, lib.Size(), len(lib.Circuits), res.Size, len(res.Ops))
	}
	var hv []float64
	for op, cs := range lib.Circuits {
		if res.Ops[op] != len(cs) {
			return fmt.Errorf("library %s: op %s has %d circuits, result reports %d", key, op, len(cs), res.Ops[op])
		}
		maxArea := 0.0
		for _, c := range cs {
			maxArea = math.Max(maxArea, c.Area)
		}
		pts := make([]pareto.Point, len(cs))
		for i, c := range cs {
			pts[i] = pareto.Point{c.MAE / float64(c.Op.MaxAbsValue()), c.Area / maxArea}
		}
		hv = append(hv, pareto.Hypervolume2D(pts, hvRef))
	}
	r.hv, r.hasHV = mean(hv), true
	return nil
}

// sharedLibrary fetches and parses the workload's shared library.
func (e *env) sharedLibrary(ctx context.Context) (*acl.Library, error) {
	b, err := e.client.Library(ctx, e.libKey)
	if err != nil {
		return nil, err
	}
	return acl.LoadBytes(b)
}

func verifyPipelines(ctx context.Context, e *env, runs []*jobRun) error {
	lib, err := e.sharedLibrary(ctx)
	if err != nil {
		return err
	}
	app := apps.Sobel()
	for _, r := range runs {
		if r.ok() {
			r.err = checkPipeline(ctx, app, lib, r)
		}
	}
	return nil
}

// checkPipeline: the front is non-empty, has SSIM in [0,1] and is
// mutually non-dominated in (−SSIM, area, energy); frontChecks of its
// configurations, re-evaluated in-process over the reduced space rebuilt
// from the same library and images, match exactly.  hv uses (1 − SSIM,
// area ÷ exact-configuration area).
func checkPipeline(ctx context.Context, app *accel.ImageApp, lib *acl.Library, r *jobRun) error {
	req := r.req.body.(axserver.PipelineRequest)
	res, err := axclient.PipelineResultOf(r.info)
	if err != nil {
		return err
	}
	if len(res.Front) == 0 {
		return fmt.Errorf("job %s: empty front", r.info.ID)
	}
	pts := make([]pareto.Point, len(res.Front))
	for i, f := range res.Front {
		if !(f.SSIM >= 0 && f.SSIM <= 1) {
			return fmt.Errorf("job %s: front SSIM %v outside [0,1]", r.info.ID, f.SSIM)
		}
		pts[i] = pareto.Point{-f.SSIM, f.Area, f.Energy}
	}
	for i := range pts {
		for j := range pts {
			if pareto.Dominates(pts[i], pts[j]) {
				return fmt.Errorf("job %s: front entry %d dominates entry %d", r.info.ID, i, j)
			}
		}
	}
	images := imagedata.BenchmarkSet(req.Images.Count, req.Images.Width, req.Images.Height, req.Images.Seed)
	pipe, err := core.NewPipeline(app, lib, images, core.Config{})
	if err != nil {
		return err
	}
	if err := pipe.ReduceContext(ctx); err != nil {
		return err
	}
	eval := func(cfg []int) (accel.Result, error) {
		if err := inSpace(pipe.Space, cfg); err != nil {
			return accel.Result{}, fmt.Errorf("job %s: %w", r.info.ID, err)
		}
		return pipe.Ev.Evaluate(pipe.Space.Circuits(cfg))
	}
	for _, i := range evenIndices(len(res.Front), frontChecks) {
		f := res.Front[i]
		got, err := eval(f.Config)
		if err != nil {
			return err
		}
		if got.SSIM != f.SSIM || got.Area != f.Area || got.Energy != f.Energy {
			return fmt.Errorf("job %s: front entry %d reported (%v, %v, %v), re-evaluated (%v, %v, %v)",
				r.info.ID, i, f.SSIM, f.Area, f.Energy, got.SSIM, got.Area, got.Energy)
		}
	}
	exact, err := eval(make([]int, len(pipe.Space)))
	if err != nil {
		return err
	}
	norm := make([]pareto.Point, len(res.Front))
	for i, f := range res.Front {
		norm[i] = pareto.Point{1 - f.SSIM, f.Area / exact.Area}
	}
	r.hv, r.hasHV = pareto.Hypervolume2D(norm, hvRef), true
	r.fidelity = (res.QoRFidelity + res.HWFidelity) / 2
	return nil
}

// evenIndices picks k indices spread evenly over [0, n), first and last
// included.
func evenIndices(n, k int) []int {
	if k > n {
		k = n
	}
	if k == 1 {
		return []int{0}
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i * (n - 1) / (k - 1)
		if len(out) == 0 || out[len(out)-1] != j {
			out = append(out, j)
		}
	}
	return out
}

// inSpace rejects a configuration (server output) that does not index
// the space.
func inSpace(s dse.Space, cfg []int) error {
	if len(cfg) != len(s) {
		return fmt.Errorf("config has %d indices, space has %d operations", len(cfg), len(s))
	}
	for i, idx := range cfg {
		if idx < 0 || idx >= len(s[i]) {
			return fmt.Errorf("config index %d out of range for operation %d (%d circuits)", idx, i, len(s[i]))
		}
	}
	return nil
}

func verifyEvaluations(ctx context.Context, e *env, runs []*jobRun) error {
	lib, err := e.sharedLibrary(ctx)
	if err != nil {
		return err
	}
	app := gaussApp()
	ops := app.Graph.OpNodes()
	space := make(dse.Space, len(ops))
	for i, id := range ops {
		space[i] = lib.For(app.Graph.Nodes[id].Op)
	}
	spec := e.evalImages()
	ev, err := accel.NewEvaluator(app, imagedata.BenchmarkSet(spec.Count, spec.Width, spec.Height, spec.Seed))
	if err != nil {
		return err
	}
	byIdx := make(map[int]*jobRun, len(runs))
	for _, r := range runs {
		byIdx[r.idx] = r
	}
	fresh := 0
	for _, r := range runs {
		if !r.ok() {
			continue
		}
		if r.req.repeatOf >= 0 {
			if orig := byIdx[r.req.repeatOf]; orig == nil || !orig.ok() || !bytes.Equal(r.info.Result, orig.info.Result) {
				r.err = fmt.Errorf("job %s: repeat of request %d returned different bytes", r.info.ID, r.req.repeatOf)
			}
			continue
		}
		recheck := fresh%freshCheck == 0
		fresh++
		r.err = checkEvaluation(ev, space, r, recheck)
	}
	return nil
}

// checkEvaluation: one result per configuration; with recheck every
// configuration is re-evaluated in-process and must match exactly.  hv
// uses (1 − SSIM, area ÷ largest area in the request).
func checkEvaluation(ev *accel.Evaluator, space dse.Space, r *jobRun, recheck bool) error {
	req := r.req.body.(axserver.EvaluateRequest)
	res, err := axclient.EvaluateResultOf(r.info)
	if err != nil {
		return err
	}
	if len(res.Results) != len(req.Configs) {
		return fmt.Errorf("job %s: %d results for %d configurations", r.info.ID, len(res.Results), len(req.Configs))
	}
	maxArea := 0.0
	for i, got := range res.Results {
		maxArea = math.Max(maxArea, got.Area)
		if !recheck {
			continue
		}
		if err := inSpace(space, req.Configs[i]); err != nil {
			return err
		}
		want, err := ev.Evaluate(space.Circuits(req.Configs[i]))
		if err != nil {
			return err
		}
		if got != (axserver.EvalResult{SSIM: want.SSIM, Area: want.Area, Delay: want.Delay,
			Power: want.Power, Energy: want.Energy, Gates: want.Gates}) {
			return fmt.Errorf("job %s: configuration %d reported %+v, re-evaluated %+v", r.info.ID, i, got, want)
		}
	}
	pts := make([]pareto.Point, len(res.Results))
	for i, got := range res.Results {
		pts[i] = pareto.Point{1 - got.SSIM, got.Area / maxArea}
	}
	r.hv, r.hasHV = pareto.Hypervolume2D(pts, hvRef), true
	return nil
}
