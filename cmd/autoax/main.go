// Command autoax regenerates the tables and figures of the autoAx paper
// (Mrazek et al., DAC 2019) and provides library-management utilities.
//
// Usage:
//
//	autoax [flags] <command>
//
// Commands:
//
//	table1 table2 table3 table4 table5   one table each
//	figure3 figure4 figure5              one figure each
//	all                                  everything, paper order
//	library                              build the component library and
//	                                     save it to -lib
//	pipeline <app>                       run the methodology on one app
//	                                     (sobel, fixedgf, genericgf — or a
//	                                     custom accelerator via -graph) and
//	                                     print its final Pareto front
//	submit                               submit a pipeline to a running
//	                                     `autoax serve` through the client
//	                                     SDK and wait for the result
//	search                               run a distributed model-based
//	                                     search over a fleet of `autoax
//	                                     serve` workers (-fleet host1,host2)
//	serve                                run the asynchronous HTTP job
//	                                     service (see internal/axserver)
//	version                              print the version
//
// Flags:
//
//	-scale tiny|small|paper   experiment size (default small)
//	-seed N                   master random seed (default 1)
//	-out DIR                  CSV output directory (default results)
//	-lib FILE                 library JSON path for the library command
//	-graph FILE               wire-format accelerator JSON; replaces the
//	                          app name for pipeline and submit
//	-engine NAME              search engine for the model-based DSE step
//	                          (hillclimb, nsga2, random; default hillclimb)
//
// Every batch runs on GOMAXPROCS goroutines; set the GOMAXPROCS
// environment variable to narrow it.  Results are identical at any width.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"path/filepath"

	"autoax/axclient"
	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/axserver"
	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/expt"
	"autoax/internal/fleet"
	"autoax/internal/imagedata"
	"autoax/internal/obs"
)

// version identifies the build for the version subcommand.
const version = "0.2.0"

func main() {
	scale := flag.String("scale", "small", "experiment scale: tiny, small or paper")
	seed := flag.Int64("seed", 1, "master random seed")
	out := flag.String("out", "results", "CSV output directory (empty to disable)")
	libPath := flag.String("lib", "library.json", "library file for the library command")
	graphPath := flag.String("graph", "", "wire-format accelerator JSON file (pipeline and submit)")
	engine := flag.String("engine", "", "search engine for the model-based DSE step (hillclimb, nsga2, random; empty = hillclimb)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	sc, err := expt.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	// -graph selects the accelerator for pipeline and submit only; anywhere
	// else it would be silently ignored, so reject it loudly instead.
	if cmd := flag.Arg(0); *graphPath != "" && cmd != "pipeline" && cmd != "submit" && cmd != "search" {
		fatal(fmt.Errorf("-graph applies to the pipeline, submit and search commands, not %q", cmd))
	}
	// -engine is validated up front against the engine table so a typo
	// fails before any expensive library build.
	if _, err := dse.SearchEngineByName(*engine); err != nil {
		fatal(err)
	}
	s := expt.Setup{Scale: sc, Seed: *seed, OutDir: *out, SearchEngine: *engine}
	w := os.Stdout

	start := time.Now()
	switch cmd := flag.Arg(0); cmd {
	case "table1":
		err = expt.Table1(w, s)
	case "table2":
		err = expt.Table2(w, s)
	case "table3":
		err = expt.Table3(w, s)
	case "table4":
		err = expt.Table4(w, s)
	case "table5":
		err = expt.Table5(w, s)
	case "figure3":
		err = expt.Figure3(w, s)
	case "figure4":
		err = expt.Figure4(w, s)
	case "figure5":
		err = expt.Figure5(w, s)
	case "ablation":
		if err = expt.AblationQoRFeatures(w, s); err == nil {
			if err = expt.AblationHWFeatures(w, s); err == nil {
				if err = expt.AblationStagnation(w, s); err == nil {
					err = expt.AblationEngines(w, s)
				}
			}
		}
	case "all":
		err = expt.RunAll(w, s)
	case "library":
		var lib interface {
			SaveFile(string) error
			Size() int
		}
		lib, err = s.Library()
		if err == nil {
			err = lib.SaveFile(*libPath)
			if err == nil {
				fmt.Fprintf(w, "library with %d circuits written to %s\n", lib.Size(), *libPath)
			}
		}
	case "pipeline":
		switch {
		case *graphPath != "" && flag.NArg() >= 2:
			fatal(fmt.Errorf("pipeline takes an app name or -graph FILE, not both"))
		case *graphPath != "":
			err = runPipelineGraph(s, *graphPath)
		case flag.NArg() >= 2:
			err = runPipeline(s, flag.Arg(1))
		default:
			fatal(fmt.Errorf("pipeline needs an app name (sobel, fixedgf, genericgf) or -graph FILE"))
		}
	case "submit":
		err = runSubmit(s, *graphPath, flag.Args()[1:])
	case "search":
		err = runSearch(s, *graphPath, flag.Args()[1:])
	case "export":
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("export needs an operation instance (e.g. add8, mul8)"))
		}
		err = runExport(s, flag.Arg(1), *out)
	case "serve":
		err = runServe(flag.Args()[1:])
	case "version":
		fmt.Printf("autoax %s\n", version)
		return
	default:
		fmt.Fprintf(os.Stderr, "autoax: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}

// runServe starts the asynchronous job service and blocks until SIGINT or
// SIGTERM, then drains in-flight HTTP exchanges and cancels running jobs.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "directory for the content-addressed artifact cache (empty = memory only)")
	cacheMemMB := fs.Int64("cache-mem-mb", 0, "in-memory artifact cache budget in MiB; LRU entries are evicted beyond it (0 = unbounded)")
	cacheDiskMB := fs.Int64("cache-disk-mb", 0, "on-disk artifact cache budget in MiB; least-recently-used files are deleted beyond it (0 = unbounded; needs -cache-dir)")
	cacheDiskTTL := fs.Duration("cache-disk-ttl", 0, "on-disk artifact expiry: cache files idle longer than this are deleted (0 = never; needs -cache-dir)")
	progCacheDir := fs.String("progcache-dir", "", "directory persisting compiled accelerator programs across restarts; writes are best-effort, happen off the request path and are flushed on shutdown (empty = compile every configuration)")
	progCacheMB := fs.Int64("progcache-mb", 0, "compiled-program directory budget in MiB; least-recently-used entries are deleted beyond it (0 = default 256 MiB; needs -progcache-dir)")
	progCacheTTL := fs.Duration("progcache-ttl", 0, "compiled-program expiry: entries idle longer than this are deleted (0 = never; needs -progcache-dir)")
	journalDir := fs.String("journal-dir", "", "directory for the write-ahead job journal: accepted jobs survive a crash and replay on restart under their original IDs (empty = jobs die with the process)")
	maxQueue := fs.Int("max-queue", 0, "admission bound on queued jobs; past it submissions get 429 queue_full with Retry-After (0 = unbounded)")
	maxQueueMB := fs.Int64("max-queue-mb", 0, "admission byte budget in MiB for queued request payloads (0 = unbounded)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, how long to let in-flight jobs finish before cancelling them (queued jobs persist in the journal either way)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060; empty = disabled)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	srv, err := axserver.New(axserver.Options{
		Workers:         *workers,
		CacheDir:        *cacheDir,
		MemCacheBytes:   *cacheMemMB << 20,
		DiskCacheBytes:  *cacheDiskMB << 20,
		DiskCacheTTL:    *cacheDiskTTL,
		ProgramCacheDir: *progCacheDir,
		// 0 MiB keeps the package default (accel.DefaultProgramDiskBytes).
		ProgramCacheBytes: *progCacheMB << 20,
		ProgramCacheTTL:   *progCacheTTL,
		JournalDir:        *journalDir,
		MaxQueue:          *maxQueue,
		MaxQueueBytes:     *maxQueueMB << 20,
		Logger:            logger,
	})
	if err != nil {
		return err
	}

	// The profiling endpoint listens on its own address and mux so the
	// job API never exposes pprof, and only when explicitly requested.
	// The same listener carries expvar (/debug/vars), with the metric
	// registry published under "autoax_metrics".
	if *pprofAddr != "" {
		obs.PublishExpvar()
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: mux}
		defer pprofSrv.Close()
		go func() {
			logger.Info("pprof.start", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof.error", "error", err.Error())
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("server.start", "addr", *addr, "workers", srv.Stats().Workers)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Restore default signal handling immediately so a second SIGINT/
	// SIGTERM force-quits instead of being swallowed during the drain.
	stop()
	logger.Info("server.shutdown", "drain_timeout", drainTimeout.String())
	// Drain-then-stop: reject new work (healthz flips to "draining") but
	// keep the HTTP listener up so pollers and the drain itself can
	// finish; in-flight jobs get drain-timeout to complete before the
	// base context cancels them.  Queued and cancelled-by-shutdown jobs
	// persist in the journal and replay on the next boot.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("server.drain", "error", err.Error())
	}
	cancelDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	srv.Close() // cancels whatever outlived the drain, waits for the workers
	if err := <-errCh; err != nil {
		return err
	}
	return shutdownErr
}

// buildLogger constructs the serve logger writing structured events to
// stderr in the requested format.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

func runPipeline(s expt.Setup, app string) error {
	pipe, err := s.Pipeline(app)
	if err != nil {
		return err
	}
	printPipeline(app, pipe)
	return nil
}

// printPipeline reports a finished methodology run.
func printPipeline(app string, pipe *core.Pipeline) {
	fmt.Printf("app %s: reduced space %.3g configurations, model fidelity QoR %.0f%% / HW %.0f%%\n",
		app, pipe.Space.NumConfigs(), 100*pipe.QoRFidelity, 100*pipe.HWFidelity)
	fmt.Printf("pseudo Pareto %d configurations → final front %d\n", pipe.Pseudo.Len(), len(pipe.FinalFront))
	cfgs, res := pipe.FrontResults()
	fmt.Println("  SSIM     area(µm²)  energy(fJ)  configuration")
	for i, r := range res {
		fmt.Printf("  %.5f  %9.1f  %10.1f  %v\n", r.SSIM, r.Area, r.Energy, cfgs[i])
	}
}

// customBudgets are the per-scale knobs used when the accelerator comes
// from a -graph file instead of a named case study (which keep their
// paper-calibrated budgets in internal/expt).
type customBudgets struct {
	libCount           int // circuits per operation instance
	train, test, evals int
	imgN, imgW, imgH   int
}

func budgetsFor(sc expt.Scale) customBudgets {
	switch sc {
	case expt.ScaleTiny:
		return customBudgets{libCount: 8, train: 24, test: 12, evals: 2000, imgN: 2, imgW: 32, imgH: 24}
	case expt.ScalePaper:
		return customBudgets{libCount: 300, train: 1500, test: 1500, evals: 100000, imgN: 8, imgW: 128, imgH: 96}
	default: // small
		return customBudgets{libCount: 60, train: 150, test: 100, evals: 10000, imgN: 3, imgW: 64, imgH: 48}
	}
}

// loadGraphApp reads and validates a wire-format accelerator file.
func loadGraphApp(path string) (*accel.ImageApp, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	app, err := accel.ParseAppJSON(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return app, nil
}

// opCountsSorted returns the app's distinct operation instances in a
// deterministic (name-sorted) order — map iteration order must not leak
// into library specs, which are content-hashed.
func opCountsSorted(app *accel.ImageApp) []acl.Op {
	counts := app.Graph.OpCounts()
	ops := make([]acl.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	return ops
}

// runPipelineGraph runs the full methodology on a custom accelerator from
// a wire-format file: a library matching its operation mix is built
// locally, then the standard three steps run in-process.
func runPipelineGraph(s expt.Setup, path string) error {
	app, err := loadGraphApp(path)
	if err != nil {
		return err
	}
	b := budgetsFor(s.Scale)
	specs := make([]acl.BuildSpec, 0)
	for _, op := range opCountsSorted(app) {
		specs = append(specs, acl.BuildSpec{Op: op, Count: b.libCount})
	}
	fmt.Printf("custom accelerator %s: %d operations over %d instance types\n",
		app.Name, len(app.Graph.OpNodes()), len(specs))
	lib, err := acl.Build(specs, s.Seed, acl.Options{Seed: s.Seed})
	if err != nil {
		return err
	}
	images := imagedata.BenchmarkSet(b.imgN, b.imgW, b.imgH, s.Seed+1000)
	pipe, err := core.NewPipeline(app, lib, images, core.Config{
		TrainConfigs: b.train,
		TestConfigs:  b.test,
		SearchEvals:  b.evals,
		Seed:         s.Seed,
		SearchEngine: s.SearchEngine,
	})
	if err != nil {
		return err
	}
	if err := pipe.RunContext(context.Background()); err != nil {
		return err
	}
	printPipeline(app.Name, pipe)
	return nil
}

// materializeApp resolves the -graph/-app pair into the accelerator and
// its wire addressing — a built-in name, or an inline wire-format graph.
// Exactly one of the two must be given.
func materializeApp(graphPath, appName string) (app *accel.ImageApp, name string, wire *accel.WireApp, err error) {
	switch {
	case graphPath != "" && appName != "":
		return nil, "", nil, fmt.Errorf("takes -graph or -app, not both")
	case graphPath != "":
		app, err = loadGraphApp(graphPath)
		if err != nil {
			return nil, "", nil, err
		}
		wire, err = app.Wire()
		if err != nil {
			return nil, "", nil, err
		}
		return app, "", wire, nil
	case appName != "":
		app, err = apps.New(appName, 2)
		if err != nil {
			return nil, "", nil, fmt.Errorf("got %w", err)
		}
		return app, appName, nil, nil
	default:
		return nil, "", nil, fmt.Errorf("needs -app NAME or the global -graph FILE")
	}
}

// runSubmit drives a remote `autoax serve` through the client SDK: it
// submits one pipeline job — for a named app or a -graph accelerator —
// waits for the terminal state with backoff polling, and prints the front.
func runSubmit(s expt.Setup, graphPath string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the job service")
	appName := fs.String("app", "", "built-in app name (sobel, fixedgf, genericgf)")
	timeout := fs.Duration("timeout", 30*time.Minute, "overall submit+wait deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	b := budgetsFor(s.Scale)
	req := axserver.PipelineRequest{
		Images:       axserver.ImageSpec{Count: b.imgN, Width: b.imgW, Height: b.imgH, Seed: s.Seed + 1000},
		TrainConfigs: b.train,
		TestConfigs:  b.test,
		SearchEvals:  b.evals,
		Seed:         s.Seed,
		Search:       axserver.SearchSpec{Engine: s.SearchEngine},
	}
	// The library request must cover the accelerator's operation mix, so
	// the app is materialized locally either way to derive the specs.
	app, name, wire, err := materializeApp(graphPath, *appName)
	if err != nil {
		return fmt.Errorf("submit %w", err)
	}
	req.App, req.Accelerator = name, wire
	for _, op := range opCountsSorted(app) {
		req.Library.Specs = append(req.Library.Specs, axserver.SpecRequest{Op: op.String(), Count: b.libCount})
	}
	req.Library.Seed = s.Seed

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := axclient.New(*addr)
	job, err := c.SubmitPipeline(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s to %s (accelerator %s)\n", job.ID, *addr, app.Name)
	// Surface the server-side stage progress while waiting: one line per
	// observed change ("explore: 3400/5000").  Old servers simply report
	// no stage, so nothing is printed.
	var lastStage string
	var lastDone int64
	done, err := c.Jobs.WaitProgress(ctx, job.ID, func(info axserver.JobInfo) {
		if info.Stage == "" || (info.Stage == lastStage && info.Progress == lastDone) {
			return
		}
		lastStage, lastDone = info.Stage, info.Progress
		fmt.Fprintf(os.Stderr, "  %s: %d/%d\n", info.Stage, info.Progress, info.ProgressTotal)
	})
	if err != nil {
		return err
	}
	res, err := axclient.PipelineResultOf(done)
	if err != nil {
		return err
	}
	served := "computed"
	if done.Cached {
		served = "served from cache"
	}
	fmt.Printf("job %s %s in %s (%s)\n", done.ID, done.State, done.Ended.Sub(done.Started).Round(time.Millisecond), served)
	fmt.Printf("reduced space %.3g configurations, fidelity QoR %.0f%% / HW %.0f%%, engine %s, search %s\n",
		res.SpaceConfigs, 100*res.QoRFidelity, 100*res.HWFidelity, res.Engine, res.SearchEngine)
	fmt.Println("  SSIM     area(µm²)  energy(fJ)  configuration")
	for _, f := range res.Front {
		fmt.Printf("  %.5f  %9.1f  %10.1f  %v\n", f.SSIM, f.Area, f.Energy, f.Config)
	}
	return nil
}

// runSearch drives a distributed model-based search over a fleet of
// `autoax serve` workers (the seed-wire protocol of internal/fleet): it
// verifies each worker's shard capability, warms every content-addressed
// library cache, partitions the evaluation budget into seed-derived
// shards, and merges the shard archives into one pseudo Pareto front —
// bit-identical to a single-process run over the same partition, however
// the shards land on workers.
func runSearch(s expt.Setup, graphPath string, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	fleetHosts := fs.String("fleet", "", "comma-separated base URLs of running `autoax serve` workers (required)")
	appName := fs.String("app", "", "built-in app name (sobel, fixedgf, genericgf)")
	shards := fs.Int("shards", 0, "number of shards to partition the budget into (0 = two per worker)")
	timeout := fs.Duration("timeout", 30*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var hosts []string
	for _, h := range strings.Split(*fleetHosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return fmt.Errorf("search needs -fleet host1,host2 (base URLs of running autoax serve workers)")
	}
	if *shards == 0 {
		*shards = 2 * len(hosts)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be positive, got %d", *shards)
	}

	app, name, wire, err := materializeApp(graphPath, *appName)
	if err != nil {
		return fmt.Errorf("search %w", err)
	}
	b := budgetsFor(s.Scale)
	libReq := axserver.LibraryRequest{Seed: s.Seed}
	for _, op := range opCountsSorted(app) {
		libReq.Specs = append(libReq.Specs, axserver.SpecRequest{Op: op.String(), Count: b.libCount})
	}
	// The shared model context every shard carries: workers with the same
	// context rebuild bit-identical estimators (see axserver.buildShardModels).
	shared := axserver.SearchShardRequest{
		App:          name,
		Accelerator:  wire,
		Images:       axserver.ImageSpec{Count: b.imgN, Width: b.imgW, Height: b.imgH, Seed: s.Seed + 1000},
		TrainConfigs: b.train,
		TestConfigs:  b.test,
		Seed:         s.Seed,
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Ready every worker: capability check, then a library build that warms
	// its content-addressed cache (a cache hit on workers that already hold
	// it).  All workers must agree on the canonical hash.
	workers := make([]fleet.Worker, 0, len(hosts))
	var libHash string
	for _, h := range hosts {
		c := axclient.New(h)
		v, err := c.ShardCapability(ctx)
		if err != nil {
			return fmt.Errorf("worker %s: %w", h, err)
		}
		if v != fleet.ProtocolVersion {
			return fmt.Errorf("worker %s speaks shard protocol %d, this client needs %d", h, v, fleet.ProtocolVersion)
		}
		job, err := c.SubmitLibrary(ctx, libReq)
		if err != nil {
			return fmt.Errorf("worker %s: %w", h, err)
		}
		done, err := c.Jobs.Wait(ctx, job.ID)
		if err != nil {
			return fmt.Errorf("worker %s: %w", h, err)
		}
		res, err := axclient.LibraryResultOf(done)
		if err != nil {
			return fmt.Errorf("worker %s: %w", h, err)
		}
		if libHash == "" {
			libHash = res.Key
		} else if libHash != res.Key {
			return fmt.Errorf("workers disagree on the canonical library hash: %s vs %s", libHash, res.Key)
		}
		fmt.Fprintf(os.Stderr, "worker %s ready (library %s)\n", h, res.Key)
		workers = append(workers, &axclient.ShardWorker{Client: c, Context: shared})
	}

	specs, err := fleet.Partition(fleet.ShardSpec{
		LibraryHash: libHash,
		Engine:      s.SearchEngine,
		Seed:        s.Seed,
		Evaluations: b.evals,
	}, *shards)
	if err != nil {
		return err
	}

	coord := &fleet.Coordinator{Workers: workers}
	begin := time.Now()
	arch, stats, err := coord.Search(ctx, specs)
	if err != nil {
		return err
	}
	fmt.Printf("fleet of %d workers ran %d shards (%d evaluations) in %s: %d dispatched, %d retried, %d reissued\n",
		len(workers), stats.Shards, b.evals, time.Since(begin).Round(time.Millisecond),
		stats.Dispatched, stats.Retried, stats.Reissued)
	pts, cfgs := arch.Points(), arch.Payloads()
	fmt.Printf("merged pseudo Pareto front: %d configurations\n", arch.Len())
	fmt.Println("  QoR(est)  HW(est)     configuration")
	for i := range pts {
		fmt.Printf("  %.5f  %10.1f  %v\n", -pts[i][0], pts[i][1], cfgs[i])
	}
	return nil
}

func runExport(s expt.Setup, opName, outDir string) error {
	op, err := acl.ParseOp(opName)
	if err != nil {
		return err
	}
	lib, err := s.Library()
	if err != nil {
		return err
	}
	circuits := lib.For(op)
	if len(circuits) == 0 {
		return fmt.Errorf("library has no %s circuits", op)
	}
	dir := filepath.Join(outDir, "verilog", op.String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range circuits {
		path := filepath.Join(dir, fileSafe(c.Name)+".v")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = c.Netlist.WriteVerilog(f, "")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d Verilog modules to %s\n", len(circuits), dir)
	return nil
}

// fileSafe reduces a circuit name to a portable file name.
func fileSafe(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func usage() {
	fmt.Fprintf(os.Stderr, `autoax — reproduction of the autoAx DAC'19 methodology

usage: autoax [flags] <command>

commands:
  table1 table2 table3 table4 table5    regenerate one paper table
  figure3 figure4 figure5               regenerate one paper figure
  ablation                              feature/threshold ablation studies
  all                                   everything in paper order
  library                               build + save the component library
  pipeline <sobel|fixedgf|genericgf>    run the methodology on one app; with
                                        the global -graph FILE flag, run it
                                        on a custom wire-format accelerator
  submit [-addr URL] [-app NAME] [-timeout D]
                                        submit a pipeline job to a running
                                        "autoax serve" via the client SDK
                                        and wait (combine with -graph FILE
                                        for custom accelerators)
  search -fleet host1,host2 [-app NAME] [-shards N] [-timeout D]
                                        distribute one model-based search
                                        across a fleet of "autoax serve"
                                        workers and print the merged front
                                        (combine with -graph FILE for
                                        custom accelerators)
  export <op>                           write the op's library circuits as
                                        structural Verilog (e.g. export mul8)
  serve [-addr :8080] [-workers N] [-cache-dir DIR] [-cache-mem-mb N]
        [-cache-disk-mb N] [-cache-disk-ttl D] [-progcache-dir DIR]
        [-progcache-mb N] [-progcache-ttl D] [-journal-dir DIR]
        [-max-queue N] [-max-queue-mb N] [-drain-timeout D]
        [-pprof ADDR] [-log-level L] [-log-format text|json]
                                        run the asynchronous HTTP job service
  version                               print the version

Precise evaluation, exhaustive enumeration, library builds and model fits
run on GOMAXPROCS goroutines (all cores unless the GOMAXPROCS environment
variable says otherwise); results are identical at any width.

flags:
`)
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoax:", err)
	os.Exit(1)
}
