package autoax_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks for the load-bearing substrates.
//
// The experiment benchmarks default to the "tiny" scale so the whole
// suite stays fast; set AUTOAX_BENCH_SCALE=small (minutes) or =paper
// (hours) to regenerate shape-accurate results:
//
//	AUTOAX_BENCH_SCALE=small go test -bench 'Table|Figure' -benchmem .
//
// Experiment products (library, pipelines) are cached per scale inside
// the process, so a full -bench=. run shares the expensive work.

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	"autoax"
	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/approxgen"
	"autoax/internal/apps"
	"autoax/internal/arith"
	"autoax/internal/dse"
	"autoax/internal/expt"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
	"autoax/internal/netlist"
	"autoax/internal/obs"
	"autoax/internal/ssim"
)

func benchSetup(b *testing.B) expt.Setup {
	scale := expt.ScaleTiny
	if env := os.Getenv("AUTOAX_BENCH_SCALE"); env != "" {
		s, err := expt.ParseScale(env)
		if err != nil {
			b.Fatal(err)
		}
		scale = s
	}
	return expt.Setup{Scale: scale, Seed: 1}
}

func benchDriver(b *testing.B, fn func(io.Writer, expt.Setup) error) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the accelerator operation counts.
func BenchmarkTable1(b *testing.B) { benchDriver(b, expt.Table1) }

// BenchmarkTable2 regenerates the library-size table (builds and
// characterizes the full approximate-component library on first run).
func BenchmarkTable2(b *testing.B) { benchDriver(b, expt.Table2) }

// BenchmarkFigure3 regenerates the Sobel operand-PMF heat maps.
func BenchmarkFigure3(b *testing.B) { benchDriver(b, expt.Figure3) }

// BenchmarkTable3 regenerates the learning-engine fidelity comparison
// (fits all 13 engines twice each on the Sobel samples).
func BenchmarkTable3(b *testing.B) { benchDriver(b, expt.Table3) }

// BenchmarkFigure4 regenerates the estimated-vs-real-area correlation.
func BenchmarkFigure4(b *testing.B) { benchDriver(b, expt.Figure4) }

// BenchmarkTable4 regenerates the search-quality comparison, including
// the exhaustive optimal front in estimator space.
func BenchmarkTable4(b *testing.B) { benchDriver(b, expt.Table4) }

// BenchmarkTable5 regenerates the design-space-size table (runs the full
// methodology on all three accelerators on first use; cached afterwards).
func BenchmarkTable5(b *testing.B) { benchDriver(b, expt.Table5) }

// BenchmarkFigure5 regenerates the Pareto-front comparison (proposed vs
// random sampling vs uniform selection on all three accelerators).
func BenchmarkFigure5(b *testing.B) { benchDriver(b, expt.Figure5) }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkNetlistEvalBlockWide measures the one simulation kernel:
// netlist.BlockWords×64 vectors per call through the compiled exact 8×8
// Dadda multiplier, one instruction per gate — the sweep path
// acl.Characterize and the evaluator's QoR pass run on.
func BenchmarkNetlistEvalBlockWide(b *testing.B) {
	nl := arith.NewDaddaMultiplier(8)
	prog := netlist.Compile(nl)
	const W = netlist.BlockWords
	in := make([]uint64, nl.NumInputs*W)
	for i := range in {
		in[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	scratch := make([]uint64, prog.NumSlots()*W)
	out := make([]uint64, prog.NumOutputs()*W)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.EvalBlock(in, scratch, out)
	}
}

// BenchmarkSimplify measures the synthesis-style optimization pass on a
// flattened Sobel accelerator (the per-configuration synthesis cost).
func BenchmarkSimplify(b *testing.B) {
	app := apps.Sobel()
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	flat, err := accel.Flatten(app.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netlist.Simplify(flat)
	}
}

// BenchmarkSynthesize measures accelerator-level synthesis of one fixed
// Gaussian-filter configuration (nine exact 8-bit multipliers, eight
// exact 16-bit adders): Flatten plus Simplify, the step every precise
// evaluation that misses the program cache runs.
func BenchmarkSynthesize(b *testing.B) {
	app := apps.GenericGF(apps.GenericGFKernels(2))
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat, err := accel.Flatten(app.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		netlist.Simplify(flat)
	}
}

// BenchmarkCharacterize measures full exhaustive characterization of one
// 8-bit approximate adder (error metrics + synthesis + activity energy).
func BenchmarkCharacterize(b *testing.B) {
	nl := arith.NewRippleCarryAdder(8)
	op := acl.Op{Kind: acl.Add, Width: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acl.Characterize(nl, op, "exact", acl.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeHighError is BenchmarkCharacterize on a circuit
// that is wrong almost everywhere: a 10-bit subtractor whose four low
// result bits are tied to zero (error rate 15/16) over its 2^20-pair
// sweep.  An exact circuit's sweep skips every word, so this row times
// the unpack and the error loop.
func BenchmarkCharacterizeHighError(b *testing.B) {
	nl := approxgen.TruncSubtractor(10, 4)
	op := acl.Op{Kind: acl.Sub, Width: 10}
	for b.Loop() {
		if _, err := acl.Characterize(nl, op, "trunc", acl.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpackBitsBlock measures turning one netlist.BlockWords
// block of output bit-planes back into per-lane integers at the output
// widths in use: 8 (pixels), 11 (sub10), 16 (mul8) and 17 (add16).
func BenchmarkUnpackBitsBlock(b *testing.B) {
	const W = netlist.BlockWords
	for _, width := range []int{8, 11, 16, 17} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			planes := make([]uint64, width*W)
			for i := range planes {
				planes[i] = uint64(i+1) * 0x9E3779B97F4A7C15
			}
			dst := make([]uint64, W*64)
			for b.Loop() {
				netlist.UnpackBitsBlock(planes, width, W, W*64, dst)
			}
		})
	}
}

// BenchmarkLibraryBuild measures a whole library build on the end-to-end
// benchmark's library-cold mix (add8:16, add9:12, sub10:8): generation,
// characterization fanned out over GOMAXPROCS, and deduplication.  Unlike
// BenchmarkCharacterize's single 8-bit adder it includes the 9- and 10-bit
// sweeps, 4× and 16× larger.
func BenchmarkLibraryBuild(b *testing.B) {
	specs := []acl.BuildSpec{
		{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 16},
		{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 12},
		{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 8},
	}
	for b.Loop() {
		if _, err := acl.Build(specs, 1, acl.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreciseEvaluation measures one full precise configuration
// analysis (flatten, synthesize, simulate over images, SSIM) — the paper's
// "10 s per configuration" step, here on the Sobel detector.
func BenchmarkPreciseEvaluation(b *testing.B) {
	app := apps.Sobel()
	images := imagedata.BenchmarkSet(2, 64, 48, 1)
	ev, err := accel.NewEvaluator(app, images)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramDiskCacheWarm measures the warm-restart path of the
// persistent compiled-program tier: each iteration stands up a fresh
// Evaluator over a pre-populated cache directory (outside the timer) and
// times decoding the Sobel configuration's netlist from disk and
// compiling it instead of re-running Flatten+Simplify (compare against
// BenchmarkPreciseEvaluation's cold synthesis share).
func BenchmarkProgramDiskCacheWarm(b *testing.B) {
	app := apps.Sobel()
	images := imagedata.BenchmarkSet(2, 64, 48, 1)
	dir := b.TempDir()
	cfg, err := accel.ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pd, err := accel.OpenProgramDir(accel.ProgramCacheConfig{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	warm, err := accel.NewEvaluatorWithCache(app, images, pd)
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Precompile(cfg); err != nil {
		b.Fatal(err)
	}
	pd.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pd, err := accel.OpenProgramDir(accel.ProgramCacheConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		ev, err := accel.NewEvaluatorWithCache(app, images, pd)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ev.Precompile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramDiskColdFill measures the cold-fill path of the
// persistent compiled-program tier: 300 fresh Sobel configurations
// through dse.EvaluateAll at GOMAXPROCS, each iteration over a fresh
// evaluator and a fresh, empty program directory, so every configuration
// synthesizes and queues its netlist for the disk.  The queued writes are
// flushed outside the timer (compare against the same batch with no
// directory to see what the tier costs the evaluation path).
func BenchmarkProgramDiskColdFill(b *testing.B) {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 12},
		{Op: autoax.OpAdd(9), Count: 12},
		{Op: autoax.OpSub(10), Count: 10},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	app := apps.Sobel()
	images := imagedata.BenchmarkSet(2, 64, 48, 1)
	ops := app.Graph.OpNodes()
	space := make(dse.Space, len(ops))
	for i, id := range ops {
		space[i] = lib.For(app.Graph.Nodes[id].Op)
	}
	cfgs := space.RandomConfigs(300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		pd, err := accel.OpenProgramDir(accel.ProgramCacheConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		ev, err := accel.NewEvaluatorWithCache(app, images, pd)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dse.EvaluateAll(context.Background(), ev, space, cfgs, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		pd.Flush()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkEvaluateAll measures a Step-2-style precise-evaluation batch of
// 16 Sobel configurations through dse.EvaluateAll, fanned out over
// GOMAXPROCS evaluators (the paper's dominant wall-clock cost); compare
// widths with -cpu 1,4.
func BenchmarkEvaluateAll(b *testing.B) {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 12},
		{Op: autoax.OpAdd(9), Count: 12},
		{Op: autoax.OpSub(10), Count: 10},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	app := apps.Sobel()
	ev, err := accel.NewEvaluator(app, imagedata.BenchmarkSet(2, 64, 48, 1))
	if err != nil {
		b.Fatal(err)
	}
	ops := app.Graph.OpNodes()
	space := make(dse.Space, len(ops))
	for i, id := range ops {
		space[i] = lib.For(app.Graph.Nodes[id].Op)
	}
	cfgs := space.RandomConfigs(16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.EvaluateAll(context.Background(), ev, space, cfgs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEstimate measures one model-based configuration estimate —
// the paper's "0.01 s per configuration" counterpart (random forest, both
// models).
func BenchmarkModelEstimate(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	est := pipe.Models.Estimator()
	cfg := make([]int, len(pipe.Space))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg[0] = i % len(pipe.Space[0])
		est(cfg)
	}
}

// BenchmarkModelTables measures building the leaf tables of both trained
// Sobel random forests (ml.RandomForest.LeafTables), which every job
// that explores with a forest pays once: each iteration draws the first
// estimator from fresh Models over the same forests.
func BenchmarkModelTables(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &dse.Models{QoR: pipe.Models.QoR, HW: pipe.Models.HW, Space: pipe.Space}
		m.Estimator()
	}
}

// BenchmarkHillClimb1k measures 1000 iterations of Algorithm 1 over the
// Sobel reduced space with trained models — the registered "hillclimb"
// engine that core.Pipeline.ExploreContext runs (set-equal to the frozen
// plain estimator loop, see TestModelsHillClimbMatchesGeneric).
func BenchmarkHillClimb1k(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunEngine(ctx, "hillclimb", pipe.Models,
			dse.SearchOptions{Evaluations: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHillClimb50k measures one 5·10⁴-estimate hill climb over the
// Sobel reduced space with trained models: the budget of one of
// core.Pipeline.ExploreContext's independent climbs, so the unit a
// pipeline job with 10⁵ estimates runs twice.  Most of its moves are
// rejected from a parent that many moves share, the pattern
// ml.TableScorer's per-parent rest masks serve.
func BenchmarkHillClimb50k(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunEngine(ctx, "hillclimb", pipe.Models,
			dse.SearchOptions{Evaluations: 50000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNSGA2Gen1k measures a 1000-evaluation NSGA-II run over the
// Sobel reduced space with trained models — the population engine's
// generation loop (sharded scoring, non-dominated sort, crowding,
// archive folding) behind the "nsga2" engine.
func BenchmarkNSGA2Gen1k(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunEngine(ctx, "nsga2", pipe.Models,
			dse.SearchOptions{Evaluations: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomSearch1k measures 1000 evaluations of the
// random-sampling baseline (the "random" engine, which draws its own
// Estimator per run) over the Sobel reduced space.
func BenchmarkRandomSearch1k(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunEngine(ctx, "random", pipe.Models,
			dse.SearchOptions{Evaluations: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIM measures the integral-image SSIM on 96×64 images.
func BenchmarkSSIM(b *testing.B) {
	x := imagedata.Synthetic(96, 64, 1)
	y := imagedata.Synthetic(96, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssim.SSIM(x, y)
	}
}

// BenchmarkRandomForestFit measures fitting the paper's winning engine on
// a Table 3-sized problem (1500 × 5 features).
func BenchmarkRandomForestFit(b *testing.B) {
	x := make([][]float64, 1500)
	y := make([]float64, len(x))
	rng := uint64(1)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>40) / float64(1<<24)
	}
	for i := range x {
		row := make([]float64, 5)
		s := 0.0
		for j := range row {
			row[j] = next() * 100
			s += row[j]
		}
		x[i] = row
		y[i] = 1 / (1 + s/100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := ml.NewRandomForest(100, int64(i))
		if err := rf.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPFit measures fitting the Table 3 MLP engine (one hidden
// layer of 100 units, 200 epochs) on a bake-off-sized problem: 140 rows,
// the 70% fit split of 200 training samples, by 15 hardware features.
func BenchmarkMLPFit(b *testing.B) {
	x := make([][]float64, 140)
	y := make([]float64, len(x))
	rng := uint64(3)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>40) / float64(1<<24)
	}
	for i := range x {
		row := make([]float64, 15)
		s := 0.0
		for j := range row {
			row[j] = next() * 100
			s += row[j]
		}
		x[i] = row
		y[i] = s / 15
	}
	for b.Loop() {
		if err := ml.NewMLP([]int{100}, 200, 1).Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoEngineTrain measures the train stage of an AutoEngine
// pipeline on the end-to-end benchmark's pipeline-auto shape: Sobel over
// an 85-circuit add8/add9/sub10 library, 200/100 train/test samples.  The
// precise samples are generated once; each iteration runs the 13-engine
// bake-off plus the final fit.
func BenchmarkAutoEngineTrain(b *testing.B) {
	lib, err := acl.Build([]acl.BuildSpec{
		{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 30},
		{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 30},
		{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 25},
	}, 1, acl.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := autoax.DefaultConfig()
	cfg.TrainConfigs, cfg.TestConfigs = 200, 100
	cfg.AutoEngine = true
	p, err := autoax.NewPipeline(apps.Sobel(), lib, imagedata.BenchmarkSet(2, 64, 48, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.GenerateSamplesContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		p.Models = nil
		if err := p.TrainContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfile measures PMF extraction (the paper's profiler) on the
// Sobel detector over two benchmark images.
func BenchmarkProfile(b *testing.B) {
	app := apps.Sobel()
	images := imagedata.BenchmarkSet(2, 64, 48, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Profile(images)
	}
}

// BenchmarkEndToEndQuickstart measures the complete methodology on a small
// Sobel instance through the public facade.
func BenchmarkEndToEndQuickstart(b *testing.B) {
	lib, err := autoax.BuildLibrary([]autoax.LibrarySpec{
		{Op: autoax.OpAdd(8), Count: 30},
		{Op: autoax.OpAdd(9), Count: 30},
		{Op: autoax.OpSub(10), Count: 25},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	images := autoax.BenchmarkImages(2, 32, 24, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := autoax.NewPipeline(autoax.Sobel(), lib, images, autoax.Config{
			TrainConfigs: 40, TestConfigs: 25, SearchEvals: 2000, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := pipe.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Observability micro-benchmarks: the per-event cost instrumented code
// pays on its hot path (see internal/obs).

// BenchmarkObsCounter measures one counter increment — a single atomic
// add, no locks, no allocation.
func BenchmarkObsCounter(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_events_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsHistogram measures one histogram observation — a linear
// bucket-bound scan plus three atomic adds, no locks, no allocation.
func BenchmarkObsHistogram(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_latency_us", obs.DefaultLatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xFFFF)
	}
}

// BenchmarkHillClimb1kObserved is BenchmarkHillClimb1k with a progress
// callback installed — the delta against the baseline bounds the whole
// cost of search observability (metric flushes at checkpoints plus
// progress reporting).
func BenchmarkHillClimb1kObserved(b *testing.B) {
	s := benchSetup(b)
	pipe, err := s.Pipeline("sobel")
	if err != nil {
		b.Fatal(err)
	}
	var last int64
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunEngine(ctx, "hillclimb", pipe.Models, dse.SearchOptions{
			Evaluations: 1000,
			Seed:        int64(i),
			Progress:    func(done, total int) { last = int64(done) },
		}); err != nil {
			b.Fatal(err)
		}
	}
	_ = last
}
