// Package autoax is a Go reproduction of "autoAx: An Automatic Design
// Space Exploration and Circuit Building Methodology utilizing Libraries of
// Approximate Components" (Mrazek et al., DAC 2019).
//
// The package is the public facade over the implementation: it re-exports
// the types and constructors needed to run the full methodology —
//
//	lib, _ := autoax.BuildLibrary([]autoax.LibrarySpec{
//		{Op: autoax.OpAdd(8), Count: 200},
//		{Op: autoax.OpSub(10), Count: 100},
//		{Op: autoax.OpAdd(9), Count: 120},
//	}, 1)
//	images := autoax.BenchmarkImages(4, 96, 64, 7)
//	pipe, _ := autoax.NewPipeline(autoax.Sobel(), lib, images, autoax.DefaultConfig())
//	_ = pipe.RunContext(context.Background())
//	cfgs, results := pipe.FrontResults()
//
// — and to define custom accelerators (see examples/customaccel).
//
// Subsystem map (all under internal/, surfaced through this facade):
//
//	netlist, cell      gate-level IR, compiled bit-parallel simulation
//	                   (netlist→program lowering, multi-word batched
//	                   evaluation), synthesis-style optimization, 45 nm
//	                   cost model
//	arith, approxgen   exact and approximate circuit generators
//	acl, pmf           component library, characterization, WMED scoring
//	accel, apps        accelerator graphs, the three case studies
//	ml, mat            the 13 regression engines of Table 3; random
//	                   forests fit in parallel (bit-identical to
//	                   sequential) and score through leaf tables keyed
//	                   by circuit for zero-allocation estimation
//	dse, pareto        Algorithm 1, baselines, Pareto utilities
//	core               the three-step methodology pipeline
//	expt               drivers regenerating every paper table and figure
//	axserver           asynchronous HTTP/JSON job service (worker pool,
//	                   content-addressed cache with request coalescing)
//	                   behind `autoax serve`; accepts named apps or
//	                   inline wire-format accelerators
//	axclient           typed Go client SDK for the job service (public,
//	                   re-exported here as Client/NewClient) with
//	                   transient-failure retry and the fleet worker adapter
//	fleet              seed-wire distributed search: a coordinator
//	                   partitions one budget into seed-derived shards,
//	                   dispatches them to workers (in-process or remote
//	                   axservers) and merges the survivors into a global
//	                   archive that is bit-identical however the shards
//	                   land — surfaced here as FleetCoordinator and
//	                   behind `autoax search -fleet`
package autoax

import (
	"io"

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
	"autoax/internal/ml"
	"autoax/internal/obs"
	"autoax/internal/pareto"
	"autoax/internal/ssim"
)

// Re-exported core types.
type (
	// Library is a collection of characterized approximate circuits
	// grouped per operation instance.
	Library = acl.Library
	// LibrarySpec requests circuits for one operation instance.
	LibrarySpec = acl.BuildSpec
	// Circuit is one characterized approximate component.
	Circuit = acl.Circuit
	// Op identifies an operation instance (class + bit width).
	Op = acl.Op
	// Image is an 8-bit grayscale image.
	Image = imagedata.Image
	// ImageApp couples an accelerator graph with its image workload.
	ImageApp = accel.ImageApp
	// Graph is an accelerator dataflow graph.
	Graph = accel.Graph
	// WireGraph is the versioned JSON wire form of a Graph
	// (Graph.MarshalWire / ParseGraphJSON).
	WireGraph = accel.WireGraph
	// WireApp is the versioned JSON wire form of an ImageApp — the
	// payload of the server request "accelerator" field
	// (ImageApp.MarshalWire / ParseAppJSON).
	WireApp = accel.WireApp
	// WireNode is one graph node of a WireGraph.
	WireNode = accel.WireNode
	// WindowTap binds a graph input to a 3×3 window position.
	WindowTap = accel.WindowTap
	// Configuration assigns one library circuit to every operation.
	Configuration = accel.Configuration
	// Result is the precise evaluation of a configuration.
	Result = accel.Result
	// Evaluator performs precise QoR/hardware evaluation: Evaluate
	// returns SSIM (or the assigned Metric) with the hardware cost.
	Evaluator = accel.Evaluator
	// ProgramCacheConfig configures the evaluator's persistent
	// compiled-program tier (directory, byte budget, TTL).
	ProgramCacheConfig = accel.ProgramCacheConfig
	// ProgramDir is an open compiled-program directory, shared by every
	// evaluator and pipeline over it (see OpenProgramDir).
	ProgramDir = accel.ProgramDir
	// ProgramCacheStats counts an evaluator's compiles (Misses) and its
	// program-directory loads (Hits) and self-heals.
	ProgramCacheStats = accel.ProgramCacheStats
	// Pipeline runs the three-step autoAx methodology.
	Pipeline = core.Pipeline
	// Config sets the methodology budgets.
	Config = core.Config
	// Space is the reduced configuration space (one library per op).
	Space = dse.Space
	// SearchOptions parameterizes the DSE searches.
	SearchOptions = dse.SearchOptions
	// SearchEngine is one DSE strategy from the fixed engine table (see
	// SearchEngines / SearchEngineByName).
	SearchEngine = dse.Engine
	// SearchOptionError reports a negative SearchOptions field (zero means
	// default; negatives are rejected).
	SearchOptionError = dse.OptionError
	// SearchModels bundles the trained QoR/hardware models with the reduced
	// space — the input every SearchEngine runs over (Pipeline.Models).
	SearchModels = dse.Models
	// ServerSearchSpec selects the search engine and seed of a server
	// pipeline request; it folds into the content-addressed cache key.
	ServerSearchSpec = axserver.SearchSpec
	// EngineSpec names an ML engine constructor.
	EngineSpec = ml.EngineSpec
	// Regressor is the supervised-learning interface.
	Regressor = ml.Regressor
	// Point is a minimized objective vector.
	Point = pareto.Point
)

// Re-exported job-service types (see internal/axserver): the asynchronous
// HTTP/JSON front end over the methodology, with a bounded worker pool and
// a content-addressed artifact cache.
type (
	// Server is the asynchronous job service behind `autoax serve`.
	Server = axserver.Server
	// ServerOptions configures the worker pool, caches, journal and
	// admission limits.  Terminal jobs kept in memory are capped at
	// axserver.DefaultJobRetention (1000).
	ServerOptions = axserver.Options
	// JobInfo is the wire representation of an asynchronous job.
	JobInfo = axserver.JobInfo
	// JobState is the lifecycle state of a job.
	JobState = axserver.JobState
	// ServerLibraryRequest describes a content-addressed library build.
	ServerLibraryRequest = axserver.LibraryRequest
	// ServerLibrarySpec is one operation's entry in a ServerLibraryRequest.
	ServerLibrarySpec = axserver.SpecRequest
	// ServerEvaluateRequest asks for precise configuration evaluation of a
	// named app or an inline wire-format accelerator.
	ServerEvaluateRequest = axserver.EvaluateRequest
	// ServerPipelineRequest asks for a full methodology run of a named app
	// or an inline wire-format accelerator.
	ServerPipelineRequest = axserver.PipelineRequest
	// ServerLibraryResult is the result payload of a library job.
	ServerLibraryResult = axserver.LibraryResult
	// ServerEvaluateResult is the result payload of an evaluate job.
	ServerEvaluateResult = axserver.EvaluateResult
	// ServerPipelineResult is the result payload of a pipeline job.
	ServerPipelineResult = axserver.PipelineResult
	// ServerStats is the GET /v1/stats payload.
	ServerStats = axserver.Stats
	// ServerCacheStats reports content-addressed cache effectiveness,
	// including singleflight-coalesced requests.
	ServerCacheStats = axserver.CacheStats
	// ServerCancelResponse is the DELETE /v1/jobs/{id} payload.
	ServerCancelResponse = axserver.CancelResponse
	// ServerJournalStats reports write-ahead job-journal activity
	// (ServerStats.Journal; present when the server runs with a
	// JournalDir).
	ServerJournalStats = axserver.JournalStats
	// ServerQueueFullError is the typed admission-control rejection the
	// server returns past its queue bounds; the HTTP layer maps it to
	// 429 queue_full with a Retry-After header.
	ServerQueueFullError = axserver.QueueFullError
	// ImageSpec describes a deterministic benchmark image set for server
	// requests.
	ImageSpec = axserver.ImageSpec
)

// ErrServerDraining rejects new work submitted to a server in
// drain-then-stop shutdown (see Server.Drain); the HTTP layer maps it
// to 503 with code "draining".
var ErrServerDraining = axserver.ErrDraining

// Re-exported client SDK (see axclient): a typed Go client for the job
// service with backoff polling, transient-failure retry and typed result
// decoding.
type (
	// Client talks to one autoAx job service over HTTP.
	Client = axclient.Client
	// ClientOption customizes a Client (e.g. WithHTTPClient).
	ClientOption = axclient.Option
	// APIError is a non-2xx server response surfaced by the client.
	APIError = axclient.APIError
)

// Re-exported distributed-search types (see internal/fleet): a
// coordinator partitions one evaluation budget into seed-derived shards,
// dispatches them to workers — in-process, or remote `autoax serve`
// instances through FleetShardWorker — and merges the Pareto survivors
// into one archive in deterministic shard order.  The result is
// bit-identical for any worker count, shard placement or injected
// mid-run failure (failed shards are retried and reissued to healthy
// workers).
type (
	// FleetCoordinator owns one distributed search: Workers plus Opts in,
	// a merged archive plus FleetStats out of Search.
	FleetCoordinator = fleet.Coordinator
	// FleetOptions tunes retries, backoff, worker benching and the
	// test-only fault-injection hook; straggler re-dispatch always starts
	// at fleet.DefaultStragglers unfinished shards.
	FleetOptions = fleet.Options
	// FleetStats reports what a fleet search did: dispatch, retry,
	// reissue, speculative and failure counts.
	FleetStats = fleet.Stats
	// FleetShardSpec is one deterministic slice of a search — library
	// hash, engine, derived seed, budget.  Part of the wire protocol.
	FleetShardSpec = fleet.ShardSpec
	// FleetShardResult carries one shard's archive survivors.
	FleetShardResult = fleet.ShardResult
	// FleetShardPoint is one archive survivor on the wire: objective
	// point plus configuration.
	FleetShardPoint = fleet.ShardPoint
	// FleetWorker executes shards; implemented by FleetLocalWorker and
	// axclient.ShardWorker.
	FleetWorker = fleet.Worker
	// FleetLocalWorker runs shards in-process over models resolved by
	// library hash.
	FleetLocalWorker = fleet.LocalWorker
	// FleetShardWorker drives a remote `autoax serve` worker over
	// POST /v1/search/shards.
	FleetShardWorker = axclient.ShardWorker
	// ServerShardRequest is the wire form of POST /v1/search/shards: the
	// shared model context plus one FleetShardSpec.
	ServerShardRequest = axserver.SearchShardRequest
	// ServerShardResponse echoes the shard identity and returns its
	// archive survivors.
	ServerShardResponse = axserver.SearchShardResponse
)

// FleetProtocolVersion is the shard wire-protocol version spoken by this
// build's coordinator, client and server (advertised by GET /v1/healthz).
const FleetProtocolVersion = fleet.ProtocolVersion

// FleetPartition splits a base shard spec's evaluation budget into n
// shards whose seeds derive from DeriveSearchSeed — the partition a
// coordinator dispatches and the reference a single process can replay.
var FleetPartition = fleet.Partition

// FleetMerge folds shard results into one archive in slice order —
// deterministic whatever order the shards completed in.
var FleetMerge = fleet.Merge

// DeriveSearchSeed maps (engine, stream label, master seed) to the
// decorrelated stream seed used by engine internals and fleet shards
// ("fleet/shard/<i>").  It is part of the distributed wire protocol and
// pinned by golden-vector tests.
var DeriveSearchSeed = dse.DeriveSeed

// Re-exported observability types (see internal/obs): the process-wide
// metric registry backing GET /v1/metrics, expvar and the Prometheus text
// exposition.
type (
	// MetricsSnapshot is a point-in-time copy of every counter, gauge and
	// histogram — the GET /v1/metrics payload and Client.Metrics result.
	MetricsSnapshot = obs.Snapshot
	// MetricsHistogram is one histogram's cumulative buckets in a
	// MetricsSnapshot.
	MetricsHistogram = obs.HistogramSnapshot
	// MetricsRegistry holds named counters, gauges and histograms with an
	// allocation-free hot path; Metrics() returns the process default.
	MetricsRegistry = obs.Registry
)

// Metrics returns the process-wide default metric registry — the one the
// pipeline, search, cache and server instrumentation record into.  Snapshot
// it, write the Prometheus text form, or register custom metrics alongside
// the built-in ones.
func Metrics() *MetricsRegistry { return obs.Default() }

// PublishMetricsExpvar exposes the default registry as the expvar variable
// "autoax_metrics" (idempotent); `autoax serve -pprof ADDR` serves it at
// /debug/vars.
func PublishMetricsExpvar() { obs.PublishExpvar() }

// NewClient returns a typed client for the job service at baseURL
// (e.g. "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	return axclient.New(baseURL, opts...)
}

// Typed result decoding for terminal jobs returned by Client.Jobs.Wait.
var (
	// LibraryResultOf decodes a succeeded library job's result.
	LibraryResultOf = axclient.LibraryResultOf
	// EvaluateResultOf decodes a succeeded evaluate job's result.
	EvaluateResultOf = axclient.EvaluateResultOf
	// PipelineResultOf decodes a succeeded pipeline job's result.
	PipelineResultOf = axclient.PipelineResultOf
)

// ParseGraphJSON strictly decodes a wire-format accelerator graph; see
// Graph.MarshalWire for the inverse.
var ParseGraphJSON = accel.ParseGraphJSON

// ParseAppJSON strictly decodes a wire-format accelerator app (graph,
// window taps, simulations); see ImageApp.MarshalWire for the inverse.
// The decoded app is fully validated and ready for NewEvaluator or
// NewPipeline.
var ParseAppJSON = accel.ParseAppJSON

// NewServer starts the worker pool of an asynchronous job service; mount
// Server.Handler on an http.Server and Close on shutdown.
func NewServer(opts ServerOptions) (*Server, error) { return axserver.New(opts) }

// LibraryKey returns the content-addressed identity a server-side build of
// these specs would be cached under — the canonical hash of (specs, seed,
// default characterization options).  Seed 0 is normalized to 1, matching
// the server's request defaulting.
func LibraryKey(specs []LibrarySpec, seed int64) string {
	if seed == 0 {
		seed = 1
	}
	return acl.CanonicalKey(specs, seed, acl.Options{Seed: seed})
}

// OpAdd returns the n-bit adder operation instance.
func OpAdd(n int) Op { return Op{Kind: acl.Add, Width: n} }

// OpSub returns the n-bit subtractor operation instance.
func OpSub(n int) Op { return Op{Kind: acl.Sub, Width: n} }

// OpMul returns the n-bit multiplier operation instance.
func OpMul(n int) Op { return Op{Kind: acl.Mul, Width: n} }

// BuildLibrary generates, characterizes and deduplicates approximate
// circuits for every spec (deterministic in seed).  Characterization fans
// out over runtime.GOMAXPROCS goroutines; the library is bit-identical at
// any parallelism.
func BuildLibrary(specs []LibrarySpec, seed int64) (*Library, error) {
	return acl.Build(specs, seed, acl.Options{Seed: seed})
}

// LoadLibrary reads a library saved with Library.SaveFile.
func LoadLibrary(path string) (*Library, error) { return acl.LoadFile(path) }

// BenchmarkImages generates n synthetic natural-statistics benchmark
// images of size w×h (deterministic in seed).
func BenchmarkImages(n, w, h int, seed int64) []*Image {
	return imagedata.BenchmarkSet(n, w, h, seed)
}

// LoadPNG reads a PNG file as 8-bit grayscale.
func LoadPNG(path string) (*Image, error) { return imagedata.LoadPNG(path) }

// The three case-study accelerators of the paper (Table 1 / Figure 2).
var (
	// Sobel returns the Sobel edge detector (5 operations).
	Sobel = apps.Sobel
	// FixedGF returns the fixed-coefficient Gaussian filter (11 operations).
	FixedGF = apps.FixedGF
	// GenericGF returns the generic Gaussian filter (17 operations) over
	// the given coefficient kernels.
	GenericGF = apps.GenericGF
	// GenericGFKernels returns n Gaussian kernels with σ ∈ [0.3, 0.8].
	GenericGFKernels = apps.GenericGFKernels
)

// NewGraph starts a custom accelerator dataflow graph.
func NewGraph(name string) *Graph { return accel.NewGraph(name) }

// NewEvaluator prepares precise evaluation of configurations for an app.
func NewEvaluator(app *ImageApp, images []*Image) (*Evaluator, error) {
	return accel.NewEvaluator(app, images)
}

// OpenProgramDir opens a persistent compiled-program directory; open it
// once per directory and share the handle.  A zero-Dir config returns
// nil: evaluators then compile every configuration.  Programs are
// written best-effort by a background writer, off the evaluation path:
// call the handle's Flush before the process exits, or before another
// handle opens the directory, so every queued program reaches the disk.
func OpenProgramDir(cfg ProgramCacheConfig) (*ProgramDir, error) {
	return accel.OpenProgramDir(cfg)
}

// NewEvaluatorWithCache is NewEvaluator with a persistent compiled-
// program tier: synthesized programs are written to dir and decoded by
// later evaluators over the same circuits instead of recompiled.
func NewEvaluatorWithCache(app *ImageApp, images []*Image, dir *ProgramDir) (*Evaluator, error) {
	return accel.NewEvaluatorWithCache(app, images, dir)
}

// NewPipeline prepares a methodology run for an app.
func NewPipeline(app *ImageApp, lib *Library, images []*Image, cfg Config) (*Pipeline, error) {
	return core.NewPipeline(app, lib, images, cfg)
}

// DefaultConfig returns paper-like methodology budgets.
func DefaultConfig() Config { return core.DefaultConfig() }

// Engines lists the Table 3 learning engines.
func Engines() []EngineSpec { return ml.Engines() }

// EngineByName looks up one Table 3 engine.
func EngineByName(name string) (EngineSpec, error) { return ml.EngineByName(name) }

// DefaultSearchEngine is the engine a run uses when none is named —
// the paper's hill climber.
const DefaultSearchEngine = dse.DefaultEngineName

// SearchEngines lists the DSE engine names in sorted order
// ("hillclimb", "nsga2", "random").
var SearchEngines = dse.SearchEngines

// SearchEngineByName resolves an engine by name; the empty string
// selects DefaultSearchEngine.
var SearchEngineByName = dse.SearchEngineByName

// RunSearchEngine resolves an engine by name and runs it over trained
// models — the seam Pipeline.ExploreContext and the server dispatch
// through (Config.SearchEngine / ServerPipelineRequest.Search).
var RunSearchEngine = dse.RunEngine

// UniformSelection runs the paper's manual uniform-error baseline.
var UniformSelection = dse.UniformSelection

// BuildTrainingData converts precisely evaluated configurations into the
// QoR and hardware learning problems (WMED features → SSIM,
// area/power/delay features → area).
var BuildTrainingData = dse.BuildTrainingData

// Fidelity returns the fraction of sample pairs ordered identically by
// predictions and ground truth — the paper's model-quality criterion.
var Fidelity = ml.Fidelity

// PredictAll applies a regressor to every feature row.
var PredictAll = ml.PredictAll

// FrontDistances measures normalized distances between two Pareto fronts
// (the Table 4 metrics).
var FrontDistances = pareto.FrontDistances

// SSIM is the structural similarity index — the paper's QoR metric and
// the default Evaluator.Metric.
var SSIM = ssim.SSIM

// PSNR is the peak signal-to-noise ratio (dB), the alternative QoR metric
// the paper mentions; assign it to Evaluator.Metric to optimize for it.
var PSNR = ssim.PSNR

// Experiment scales for RunExperiments.
const (
	ScaleTiny  = expt.ScaleTiny
	ScaleSmall = expt.ScaleSmall
	ScalePaper = expt.ScalePaper
)

// RunExperiments regenerates every paper table and figure at the given
// scale, writing text output to w and CSV series to outDir (when set).
func RunExperiments(w io.Writer, scale string, seed int64, outDir string) error {
	sc, err := expt.ParseScale(scale)
	if err != nil {
		return err
	}
	return expt.RunAll(w, expt.Setup{Scale: sc, Seed: seed, OutDir: outDir})
}
