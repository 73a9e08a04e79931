// Package core orchestrates the complete autoAx methodology — the paper's
// primary contribution (Figure 1):
//
//	Step 1  Library pre-processing: profile the accelerator on benchmark
//	        data, score every library circuit by WMED under the profiled
//	        operand PMFs, and keep only (WMED, area) Pareto-optimal
//	        circuits per operation → reduced libraries RL_k.
//	Step 2  Model construction: evaluate a few thousand random
//	        configurations precisely (simulation + synthesis) and train two
//	        regression models — WMED features → SSIM and area/power/delay
//	        features → synthesized area — selected and judged by fidelity.
//	Step 3  Model-based DSE: Algorithm 1 hill climbing over the reduced
//	        space using only model estimates (pseudo Pareto set), then
//	        precise re-evaluation of the survivors and construction of the
//	        final Pareto front over real SSIM, area and energy.
//
// The stages are exposed individually so the experiment drivers can reuse
// intermediate products (Table 3 compares engines on the Step 2 samples;
// Table 4 compares searches inside the Step 3 estimator space).
package core

import (
	"context"
	"fmt"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/dse"
	"autoax/internal/fleet"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
	"autoax/internal/par"
	"autoax/internal/pareto"
	"autoax/internal/pmf"
)

// Config sets the methodology's budget knobs.  Like library builds, every
// parallel stage runs on GOMAXPROCS goroutines with bit-identical results:
// the precise-evaluation batches (Step 2 samples, Step 3 re-evaluation),
// train's model fits (forest trees, the QoR/HW pair, the AutoEngine
// bake-off) and explore's independent hill climbs (see climbEvals).
type Config struct {
	// TrainConfigs / TestConfigs: random configurations precisely
	// evaluated for model fitting and validation (paper: 1500/1500 for
	// Sobel, 4000/1000 for the Gaussian filters).
	TrainConfigs int
	TestConfigs  int
	// Engine is the learning engine (default: Random Forest, the paper's
	// winner).
	Engine ml.EngineSpec
	// AutoEngine, when set, selects the engine by validation fidelity
	// instead of using Engine — the paper's §2.3 remedy when the chosen
	// engine's fidelity is insufficient, automated: the training samples
	// are split 70/30, every registry engine is fitted on the first part
	// and scored on the second, and the best mean (QoR, HW) fidelity wins.
	AutoEngine bool
	// SearchEvals is the Step 3 estimator budget (paper: 10⁵–10⁶).
	SearchEvals int
	// Stagnation is the restart threshold of Algorithm 1 (paper: 50).
	Stagnation int
	// SearchEngine names the registered dse search engine Step 3 runs
	// ("hillclimb", "random", "nsga2"; see dse.SearchEngines).  Empty
	// means dse.DefaultEngineName — the paper's Algorithm 1 hill climb.
	SearchEngine string
	// SearchSeed seeds the engine's random streams.  0 derives Seed+300,
	// the historical explore seed, so default runs are unchanged.
	SearchSeed int64
	// ProgramCache is the precise evaluator's persistent compiled-program
	// directory (see accel.OpenProgramDir); nil synthesizes every
	// configuration.  A restarted pipeline decodes and compiles the
	// persisted simplified netlists instead of re-synthesizing; pipelines
	// over one directory share one handle.
	ProgramCache *accel.ProgramDir
	// Seed drives every random choice.
	Seed int64
}

// DefaultConfig returns paper-like settings scaled for one desktop CPU.
func DefaultConfig() Config {
	return Config{
		TrainConfigs: 1500,
		TestConfigs:  1500,
		Engine:       ml.Engines()[0], // Random Forest
		SearchEvals:  100000,
		Stagnation:   50,
		Seed:         1,
	}
}

// Pipeline carries the state of one methodology run on one accelerator.
type Pipeline struct {
	App    *accel.ImageApp
	Lib    *acl.Library
	Images []*imagedata.Image
	Opt    Config

	// Observer, when set, receives live stage progress (see StageObserver).
	// Independent of it, every run records per-stage wall time and item
	// counts into the process metrics registry (obs.Default()).
	Observer StageObserver

	// Products of the stages, in order of appearance.
	Ev        *accel.Evaluator
	PMFs      []*pmf.PMF
	Space     dse.Space
	TrainCfgs [][]int
	TrainRes  []accel.Result
	TestCfgs  [][]int
	TestRes   []accel.Result
	Models    *dse.Models
	// QoRFidelity / HWFidelity: test-set fidelities of the trained models.
	QoRFidelity float64
	HWFidelity  float64
	Pseudo      *pareto.Archive[[]int]
	FinalCfgs   [][]int
	FinalRes    []accel.Result
	// FinalFront indexes FinalCfgs/FinalRes: the configurations Pareto-
	// optimal in (SSIM, area, energy) measured on real values.
	FinalFront []int
}

// NewPipeline validates inputs and prepares the precise evaluator.
func NewPipeline(app *accel.ImageApp, lib *acl.Library, images []*imagedata.Image, opt Config) (*Pipeline, error) {
	if opt.Engine.New == nil {
		opt.Engine = DefaultConfig().Engine
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if _, err := dse.SearchEngineByName(opt.SearchEngine); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ev, err := accel.NewEvaluatorWithCache(app, images, opt.ProgramCache)
	if err != nil {
		return nil, err
	}
	for op := range app.Graph.OpCounts() {
		if len(lib.For(op)) == 0 {
			return nil, fmt.Errorf("core: library has no circuits for %s", op)
		}
	}
	return &Pipeline{App: app, Lib: lib, Images: images, Opt: opt, Ev: ev}, nil
}

// ReduceContext performs Step 1: profiling and per-operation library
// reduction, with cancellation checked between operations.
func (p *Pipeline) ReduceContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ops := p.App.Graph.OpNodes()
	r := p.startStage(StageReduce, int64(len(ops)))
	defer r.finish()
	p.PMFs = p.App.Profile(p.Images)
	p.Space = make(dse.Space, len(ops))
	for i, id := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		op := p.App.Graph.Nodes[id].Op
		// Score/filter a private copy: two nodes of the same op type have
		// different PMFs and must not share WMED fields.
		src := p.Lib.For(op)
		copies := make([]*acl.Circuit, len(src))
		for j, c := range src {
			cc := *c
			copies[j] = &cc
		}
		p.Space[i] = acl.Reduce(copies, p.PMFs[i])
		r.step(1)
	}
	return p.Space.Validate()
}

// GenerateSamplesContext performs the data-collection half of Step 2:
// random configurations evaluated precisely for training and testing,
// with cancellation checked before every precise evaluation.
func (p *Pipeline) GenerateSamplesContext(ctx context.Context) error {
	if p.Space == nil {
		if err := p.ReduceContext(ctx); err != nil {
			return err
		}
	}
	r := p.startStage(StageSamples, int64(p.Opt.TrainConfigs+p.Opt.TestConfigs))
	defer r.finish()
	onDone := func() { r.step(1) }
	var err error
	p.TrainCfgs = p.Space.RandomConfigs(p.Opt.TrainConfigs, p.Opt.Seed+100)
	p.TrainRes, err = dse.EvaluateAll(ctx, p.Ev, p.Space, p.TrainCfgs, onDone)
	if err != nil {
		return err
	}
	p.TestCfgs = p.Space.RandomConfigs(p.Opt.TestConfigs, p.Opt.Seed+200)
	p.TestRes, err = dse.EvaluateAll(ctx, p.Ev, p.Space, p.TestCfgs, onDone)
	return err
}

// TrainContext performs the learning half of Step 2 with the configured
// engine (or, with AutoEngine, the engine winning a validation-fidelity
// bake-off) and records test fidelities, with cancellation checked before
// each engine fit.
func (p *Pipeline) TrainContext(ctx context.Context) error {
	if p.TrainRes == nil {
		if err := p.GenerateSamplesContext(ctx); err != nil {
			return err
		}
	}
	// One work item per engine fit: the bake-off candidates (when
	// AutoEngine) plus the final fit on the full training set.
	total := int64(1)
	if p.Opt.AutoEngine {
		total += int64(len(ml.Engines()))
	}
	r := p.startStage(StageTrain, total)
	defer r.finish()
	engine := p.Opt.Engine
	if p.Opt.AutoEngine {
		var err error
		engine, err = p.selectEngine(ctx, r)
		if err != nil {
			return err
		}
		p.Opt.Engine = engine
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m, err := dse.TrainModels(engine, p.Opt.Seed, p.Space, p.TrainCfgs, p.TrainRes)
	if err != nil {
		return err
	}
	r.step(1)
	p.Models = m
	xq, yq, xh, yh := dse.BuildTrainingData(p.Space, p.TestCfgs, p.TestRes)
	p.QoRFidelity = dse.ModelFidelity(m.QoR, xq, yq)
	p.HWFidelity = dse.ModelFidelity(m.HW, xh, yh)
	return nil
}

// selectEngine runs the engine bake-off on a 70/30 split of the training
// samples and returns the engine with the best mean validation fidelity.
// The engines are fitted concurrently on up to GOMAXPROCS goroutines, each
// with its own seed; scores are collected by engine index and the winner
// is chosen in registry order, so the selection is the same at any
// GOMAXPROCS.  An engine whose fit fails or panics loses the bake-off.
func (p *Pipeline) selectEngine(ctx context.Context, r *stageRun) (ml.EngineSpec, error) {
	cut := len(p.TrainCfgs) * 7 / 10
	if cut < 2 || len(p.TrainCfgs)-cut < 2 {
		return p.Opt.Engine, fmt.Errorf("core: too few samples (%d) for engine selection", len(p.TrainCfgs))
	}
	fitCfgs, valCfgs := p.TrainCfgs[:cut], p.TrainCfgs[cut:]
	fitRes, valRes := p.TrainRes[:cut], p.TrainRes[cut:]
	xqV, yqV, xhV, yhV := dse.BuildTrainingData(p.Space, valCfgs, valRes)
	engines := ml.Engines()
	scores := make([]float64, len(engines))
	errs := par.Each(ctx, len(engines), func(i int) error {
		m, err := dse.TrainModels(engines[i], p.Opt.Seed, p.Space, fitCfgs, fitRes)
		r.step(1)
		if err != nil {
			return err
		}
		scores[i] = (dse.ModelFidelity(m.QoR, xqV, yqV) + dse.ModelFidelity(m.HW, xhV, yhV)) / 2
		return nil
	})
	if err := ctx.Err(); err != nil {
		return p.Opt.Engine, err
	}
	best := ml.EngineSpec{}
	bestScore := -1.0
	for i, spec := range engines {
		if errs[i] == nil && scores[i] > bestScore {
			bestScore, best = scores[i], spec
		}
	}
	if best.New == nil {
		return p.Opt.Engine, fmt.Errorf("core: engine selection found no usable engine")
	}
	return best, nil
}

// climbEvals is the estimator budget of one independent hill climb.  A
// hillclimb budget of at least two climbs' worth runs as
// SearchEvals/climbEvals climbs on every core instead of one long climb.
// The climb count depends only on the budget, never on the core count, so
// the pseudo Pareto set stays a pure function of (library, engine, seed,
// budget).  Each climb keeps its own candidate memo, so smaller climbs
// re-estimate more repeats; a 5·10⁴-estimate climb still makes about 970
// restarts at Stagnation 50.
const climbEvals = 50000

// ExploreContext performs the first half of Step 3: Algorithm 1 over the
// model estimates, producing the pseudo Pareto set, with cancellation
// checked periodically inside the search.
//
// The default hillclimb engine with a budget of at least 2·climbEvals runs
// k = SearchEvals/climbEvals independent climbs concurrently: climb i gets
// fleet.Split's budget slice and derived seed and the archives merge in
// climb order through fleet.Merge, so the result equals a k-shard fleet
// search over the same models.  Smaller budgets and the other engines run
// one engine call with the search seed itself.
func (p *Pipeline) ExploreContext(ctx context.Context) error {
	if p.Models == nil {
		if err := p.TrainContext(ctx); err != nil {
			return err
		}
	}
	r := p.startStage(StageExplore, int64(p.Opt.SearchEvals))
	defer r.finish()
	seed := p.Opt.SearchSeed
	if seed == 0 {
		seed = p.Opt.Seed + 300
	}
	engine := p.Opt.SearchEngine
	if engine == "" {
		engine = dse.DefaultEngineName
	}
	opt := dse.SearchOptions{
		Evaluations: p.Opt.SearchEvals,
		Stagnation:  p.Opt.Stagnation,
		Seed:        seed,
	}
	climbs := p.Opt.SearchEvals / climbEvals
	if engine != dse.DefaultEngineName || climbs < 2 {
		opt.Progress = r.deltas()
		pseudo, err := dse.RunEngine(ctx, engine, p.Models, opt)
		if err != nil {
			return err
		}
		p.Pseudo = pseudo
		return nil
	}
	shards := fleet.Split(engine, seed, p.Opt.SearchEvals, climbs)
	results := make([]*fleet.ShardResult, climbs)
	errs := par.Each(ctx, climbs, func(i int) error {
		o := opt
		o.Evaluations, o.Seed = shards[i].Evaluations, shards[i].Seed
		o.Progress = r.deltas()
		arch, err := dse.RunEngine(ctx, engine, p.Models, o)
		if err != nil {
			return err
		}
		results[i] = fleet.ResultFromArchive(arch)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.Pseudo = fleet.Merge(results)
	return nil
}

// FinalizeContext performs the second half of Step 3: precise
// re-evaluation of the pseudo Pareto configurations and construction of
// the final Pareto front over real (SSIM, area, energy), with
// cancellation checked before every precise re-evaluation.
func (p *Pipeline) FinalizeContext(ctx context.Context) error {
	if p.Pseudo == nil {
		if err := p.ExploreContext(ctx); err != nil {
			return err
		}
	}
	_, cfgs := dse.SortArchive(p.Pseudo)
	// The accurate baseline (index 0 of every reduced library is its
	// minimum-WMED, i.e. exact, circuit) is always verified alongside the
	// pseudo set: a designer has it by definition, and it anchors the
	// SSIM≈1 end of the final front even when the estimator's plateau hid
	// it from the hill climber.
	exact := make([]int, len(p.Space))
	haveExact := false
	for _, c := range cfgs {
		same := true
		for i := range c {
			if c[i] != 0 {
				same = false
				break
			}
		}
		if same {
			haveExact = true
			break
		}
	}
	if !haveExact {
		cfgs = append(cfgs, exact)
	}
	p.FinalCfgs = cfgs
	r := p.startStage(StageFinalize, int64(len(cfgs)))
	defer r.finish()
	var err error
	p.FinalRes, err = dse.EvaluateAll(ctx, p.Ev, p.Space, cfgs, func() { r.step(1) })
	if err != nil {
		return err
	}
	pts := make([]pareto.Point, len(p.FinalRes))
	for i, r := range p.FinalRes {
		pts[i] = pareto.Point{-r.SSIM, r.Area, r.Energy}
	}
	p.FinalFront = pareto.Front(pts)
	return nil
}

// RunContext executes all stages in order under a context: cancelling the
// context aborts the run at the next stage boundary or mid-stage checkpoint
// (between precise evaluations, engine fits, or hill-climb strides) and
// returns the context's error.
func (p *Pipeline) RunContext(ctx context.Context) error { return p.FinalizeContext(ctx) }

// FrontResults returns the final-front configurations with their precise
// results, ordered as discovered.
func (p *Pipeline) FrontResults() ([][]int, []accel.Result) {
	cfgs := make([][]int, 0, len(p.FinalFront))
	res := make([]accel.Result, 0, len(p.FinalFront))
	for _, i := range p.FinalFront {
		cfgs = append(cfgs, p.FinalCfgs[i])
		res = append(res, p.FinalRes[i])
	}
	return cfgs, res
}
