package axserver

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"autoax/internal/accel"
	"autoax/internal/acl"
)

// SpecRequest asks for count candidate circuits of one operation instance,
// named in the paper's opN form ("add8", "sub10", "mul8").
type SpecRequest struct {
	Op    string `json:"op"`
	Count int    `json:"count"`
}

// LibraryRequest describes one content-addressed library build: the specs,
// the generation seed, and the characterization knobs (zero values take the
// acl defaults).  Identical requests hash to identical keys and are served
// from the cache.
type LibraryRequest struct {
	Specs []SpecRequest `json:"specs"`
	Seed  int64         `json:"seed"`
	// Characterization options (see acl.Options); zero = default.
	ExhaustiveBits  int `json:"exhaustiveBits,omitempty"`
	Samples         int `json:"samples,omitempty"`
	ActivityBatches int `json:"activityBatches,omitempty"`
}

// maxLibraryCircuits caps the total circuits one build may request —
// several times the paper's largest library (Table 2, ~39k), small enough
// that a single request cannot exhaust the server.
const maxLibraryCircuits = 200000

// maxLibrarySamples and maxExhaustiveBits cap the per-circuit sweep:
// acl.BuildContext checks cancellation only between circuits, so one
// circuit's sweep must stay short enough for job cancellation and
// deadlines to hold.  Every default fits (mul8 sweeps 16 bits
// exhaustively, wider ops are sampled).
const (
	maxLibrarySamples = 1 << 24
	maxExhaustiveBits = 24
)

// buildInputs converts the wire request into the acl build inputs.
func (r LibraryRequest) buildInputs() ([]acl.BuildSpec, int64, acl.Options, error) {
	if len(r.Specs) == 0 {
		return nil, 0, acl.Options{}, fmt.Errorf("library request needs at least one spec")
	}
	specs := make([]acl.BuildSpec, len(r.Specs))
	total := 0
	for i, s := range r.Specs {
		op, err := acl.ParseOp(s.Op)
		if err != nil {
			return nil, 0, acl.Options{}, err
		}
		if s.Count <= 0 {
			return nil, 0, acl.Options{}, fmt.Errorf("spec %s: count must be positive, got %d", s.Op, s.Count)
		}
		total += s.Count
		if total > maxLibraryCircuits {
			return nil, 0, acl.Options{}, fmt.Errorf("library request exceeds %d total circuits", maxLibraryCircuits)
		}
		specs[i] = acl.BuildSpec{Op: op, Count: s.Count}
	}
	// Zero takes the acl default; a negative knob would run the sweep
	// for 2^64 pairs (samples) or zero every circuit's power and energy
	// (activityBatches).  activityBatches needs no upper cap: it only
	// selects among the sweep's own blocks.
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"exhaustiveBits", r.ExhaustiveBits, maxExhaustiveBits},
		{"samples", r.Samples, maxLibrarySamples},
		{"activityBatches", r.ActivityBatches, math.MaxInt},
	} {
		if f.v < 0 {
			return nil, 0, acl.Options{}, fmt.Errorf("library request: %s must not be negative, got %d", f.name, f.v)
		}
		if f.v > f.max {
			return nil, 0, acl.Options{}, fmt.Errorf("library request: %s must be at most %d, got %d", f.name, f.max, f.v)
		}
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	opts := acl.Options{
		ExhaustiveBits:  r.ExhaustiveBits,
		Samples:         r.Samples,
		ActivityBatches: r.ActivityBatches,
		Seed:            seed,
	}
	return specs, seed, opts, nil
}

// Key returns the content-addressed identity of the build this request
// describes (the {key} accepted by GET /v1/libraries/{key}).
func (r LibraryRequest) Key() (string, error) {
	specs, seed, opts, err := r.buildInputs()
	if err != nil {
		return "", err
	}
	return acl.CanonicalKey(specs, seed, opts), nil
}

// LibraryResult is the result payload of a library-build job.  The library
// itself is fetched separately by key (GET /v1/libraries/{key}) so job
// polling stays cheap.
type LibraryResult struct {
	// Key addresses the built artifact in the cache.
	Key string `json:"key"`
	// Size is the total circuit count after deduplication.
	Size int `json:"size"`
	// Ops maps each operation instance to its circuit count.
	Ops map[string]int `json:"ops"`
}

// ImageSpec describes a deterministic synthetic benchmark image set.
type ImageSpec struct {
	Count  int   `json:"count"`
	Width  int   `json:"width"`
	Height int   `json:"height"`
	Seed   int64 `json:"seed"`
}

// normalized applies the defaulting the execution path uses, so content
// hashes of equivalent specs agree.
func (s ImageSpec) normalized() ImageSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// EvaluateRequest asks for precise (simulation + synthesis) evaluation of
// explicit configurations of one accelerator — a named case study (App) or
// an inline wire-format accelerator (Accelerator); exactly one must be
// set.  Configuration indices select circuits from the library's
// per-operation lists in their stored (area-sorted) order, one index per
// operation node of the app.
type EvaluateRequest struct {
	// App names a built-in case study: sobel | fixedgf | genericgf.
	App     string `json:"app,omitempty"`
	Kernels int    `json:"kernels,omitempty"` // genericgf coefficient sets (default 2)
	// Accelerator is an inline accelerator in the accel wire format
	// (version, graph, taps, sims) — see accel.WireApp.  Structurally
	// identical accelerators are content-addressed identically, so an
	// inline copy of a named case study shares its cache entries.
	Accelerator *accel.WireApp `json:"accelerator,omitempty"`
	Library     LibraryRequest `json:"library"`
	Images      ImageSpec      `json:"images"`
	Configs     [][]int        `json:"configs"`
}

// EvalResult is the precise evaluation of one configuration.
type EvalResult struct {
	SSIM   float64 `json:"ssim"`
	Area   float64 `json:"area"`   // µm²
	Delay  float64 `json:"delay"`  // ns
	Power  float64 `json:"power"`  // µW
	Energy float64 `json:"energy"` // fJ per output pixel
	Gates  int     `json:"gates"`
}

// EvaluateResult is the result payload of an evaluate job.
type EvaluateResult struct {
	LibraryKey string       `json:"libraryKey"`
	Results    []EvalResult `json:"results"`
}

// SearchSpec selects the Step 3 search engine of a pipeline run.  Both
// fields participate in the content-addressed pipeline key — results
// depend on them — so switching engine or seed on an otherwise identical
// request is a cache miss, never a stale hit.
type SearchSpec struct {
	// Engine names a dse search engine (hillclimb, random, nsga2);
	// empty means the default, Algorithm 1's hill climb.
	Engine string `json:"engine,omitempty"`
	// Seed drives the engine's random streams.  0 derives the historical
	// default from the request seed (seed+300), so existing requests keep
	// their exact results.
	Seed int64 `json:"seed,omitempty"`
}

// PipelineRequest asks for one full methodology run (Steps 1–3) of the
// autoAx flow on an accelerator — a named case study (App) or an inline
// wire-format accelerator (Accelerator); exactly one must be set.  Zero
// budget fields take the core defaults.
type PipelineRequest struct {
	App     string `json:"app,omitempty"`
	Kernels int    `json:"kernels,omitempty"`
	// Accelerator is an inline accelerator in the accel wire format; see
	// EvaluateRequest.Accelerator.
	Accelerator *accel.WireApp `json:"accelerator,omitempty"`
	Library     LibraryRequest `json:"library"`
	Images      ImageSpec      `json:"images"`

	TrainConfigs int    `json:"trainConfigs,omitempty"`
	TestConfigs  int    `json:"testConfigs,omitempty"`
	SearchEvals  int    `json:"searchEvals,omitempty"`
	Stagnation   int    `json:"stagnation,omitempty"`
	Engine       string `json:"engine,omitempty"` // ml engine name; empty = default
	AutoEngine   bool   `json:"autoEngine,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	// Search selects the Step 3 search engine and its seed.  Always
	// serialized in the normalized request, so it folds into the pipeline
	// cache key.
	Search SearchSpec `json:"search"`
}

// FrontEntry is one configuration of the final Pareto front with its
// precise results.
type FrontEntry struct {
	Config []int   `json:"config"`
	SSIM   float64 `json:"ssim"`
	Area   float64 `json:"area"`
	Energy float64 `json:"energy"`
}

// PipelineResult is the result payload of a pipeline job.
type PipelineResult struct {
	LibraryKey   string  `json:"libraryKey"`
	SpaceConfigs float64 `json:"spaceConfigs"` // reduced-space size
	QoRFidelity  float64 `json:"qorFidelity"`
	HWFidelity   float64 `json:"hwFidelity"`
	Engine       string  `json:"engine"`
	// SearchEngine echoes the Step 3 search engine the run used (the
	// normalized Search.Engine — never empty).
	SearchEngine string       `json:"searchEngine"`
	Front        []FrontEntry `json:"front"`
}

// JobState is the lifecycle state of an asynchronous job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCancelled
}

// JobInfo is the wire representation of a job returned by the jobs
// endpoints.
type JobInfo struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"` // library | evaluate | pipeline
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started,omitzero"`
	Ended   time.Time `json:"ended,omitzero"`
	// Cached marks a job whose result was served without recomputation:
	// from the content-addressed cache, or by coalescing onto an
	// identical computation that was already in flight.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Stage is the pipeline stage the job is currently executing (for
	// pipeline jobs: reduce, samples, train, explore, finalize; for
	// evaluate jobs: evaluate), kept on terminal jobs as the stage they
	// ended in.  Empty while queued, for jobs that never ran, and for
	// kinds that do not report stages.
	Stage string `json:"stage,omitempty"`
	// Progress counts work items completed within Stage; it only ever
	// advances within one stage.  ProgressTotal is the stage's total
	// (0 = unknown).
	Progress      int64 `json:"progress,omitempty"`
	ProgressTotal int64 `json:"progressTotal,omitempty"`
	// Result is the kind-specific payload (LibraryResult, EvaluateResult
	// or PipelineResult), present once State is "succeeded".
	Result json.RawMessage `json:"result,omitempty"`
	// Replayed marks a job restored from the write-ahead journal after a
	// restart: same ID, same request, and — through the content-addressed
	// cache — the same result bytes an uninterrupted run would produce.
	Replayed bool `json:"replayed,omitempty"`
}

// CancelResponse is the payload of a successful DELETE /v1/jobs/{id}.
//
// Cancellation of a running job is best-effort: the job's context is
// cancelled, but a job that completes before observing the cancellation at
// one of its checkpoints still lands in the succeeded state.  BestEffort
// marks that case; poll the job until its state is terminal to learn the
// actual outcome.  Queued jobs cancel deterministically (Job.State is
// already "cancelled" in the response).
type CancelResponse struct {
	Job JobInfo `json:"job"`
	// BestEffort is true when the job was already running, i.e. the
	// cancellation races the job's own completion and may lose.
	BestEffort bool `json:"bestEffort"`
}

// CacheStats reports content-addressed cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from either tier: MemHits + DiskHits.
	Hits int64 `json:"hits"`
	// MemHits / DiskHits split the hits by serving tier (a disk hit
	// re-promotes the entry into the memory tier).
	MemHits  int64 `json:"memHits"`
	DiskHits int64 `json:"diskHits"`
	Misses   int64 `json:"misses"`
	// Coalesced counts requests that joined a concurrent identical
	// computation already in flight (singleflight) instead of recomputing
	// or racing to fill the cache.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts memory-tier entries dropped to stay inside the
	// configured byte budget (they remain reachable through the disk tier
	// when one is configured).
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	// MemBytes is the summed size of the memory-tier entries.
	MemBytes int64 `json:"memBytes"`
	// DiskEvictions counts disk-tier entries removed to stay inside the
	// configured disk byte budget (0 when the disk tier is unbounded).
	DiskEvictions int64 `json:"diskEvictions"`
	// DiskExpired counts disk-tier entries removed because they sat idle
	// longer than the configured TTL (0 when no TTL is set).
	DiskExpired int64 `json:"diskExpired"`
	// DiskEntries / DiskBytes describe the disk tier's current contents
	// (tracked only when a CacheDir is configured).
	DiskEntries int   `json:"diskEntries"`
	DiskBytes   int64 `json:"diskBytes"`
}

// Stats is the payload of GET /v1/stats.
type Stats struct {
	Workers  int `json:"workers"`
	QueueLen int `json:"queueLen"`
	// QueueBytes is the request-payload bytes retained by queued jobs —
	// the figure the byte-budget admission bound sheds against.
	QueueBytes int64            `json:"queueBytes"`
	Jobs       map[JobState]int `json:"jobs"`
	Cache      CacheStats       `json:"cache"`
	UptimeSec  float64          `json:"uptimeSec"`
	// ShardProtocol is the fleet shard protocol version this server
	// speaks on POST /v1/search/shards.
	ShardProtocol int `json:"shardProtocol"`
	// Draining reports a server in drain-then-stop shutdown: new work is
	// rejected, in-flight jobs run to completion, queued jobs persist in
	// the journal for the next boot.
	Draining bool `json:"draining,omitempty"`
	// Journal reports write-ahead journal activity (nil without a
	// journal directory).
	Journal *JournalStats `json:"journal,omitempty"`
}

// HealthzResponse is the payload of GET /v1/healthz.  Shards advertises
// the fleet shard protocol version this server speaks (0 would mean no
// shard support), so coordinators can check worker capability before
// dispatching a distributed search.  Status is "ok" while serving and
// "draining" during drain-then-stop shutdown (load balancers should stop
// routing new work to a draining node).
type HealthzResponse struct {
	Status string `json:"status"`
	Shards int    `json:"shards"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	// Code is a machine-readable error class, set by endpoints with a
	// typed error contract (the shard endpoint's bad_version /
	// unknown_engine / invalid_budget / unknown_library / bad_request).
	Code string `json:"code,omitempty"`
}
