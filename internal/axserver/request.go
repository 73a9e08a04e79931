package axserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/core"
	"autoax/internal/dse"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
)

// The request path.  Every request takes the same steps: decode →
// validate → default → key → cache/coalesce → run.  A job kind is one
// jobKind value; its HTTP route, its Server.Submit method and journal
// replay are all built from it.  Evaluate and pipeline requests, and the
// model context of a shard request, address an accelerator; they
// resolve and validate it in target.resolve and are defaulted and
// content-addressed in prepare.

// jobKind is one job kind's request path: the kind name the journal
// records, and the factory that validates a request and returns its
// runFunc.
type jobKind[R any] struct {
	name string
	run  func(*Server, R) (runFunc, error)
}

// The job kinds.
var (
	libraryJobs  = jobKind[LibraryRequest]{"library", (*Server).libraryRun}
	evaluateJobs = jobKind[EvaluateRequest]{"evaluate", (*Server).evaluateRun}
	pipelineJobs = jobKind[PipelineRequest]{"pipeline", (*Server).pipelineRun}
)

// replayers maps a journaled job kind to the decoder of its request.
var replayers = map[string]func(*Server, []byte) (runFunc, error){
	libraryJobs.name:  libraryJobs.decode,
	evaluateJobs.name: evaluateJobs.decode,
	pipelineJobs.name: pipelineJobs.decode,
}

// submit validates req, then admits, journals and enqueues its job.
func (k jobKind[R]) submit(s *Server, req R) (JobInfo, error) {
	run, err := k.run(s, req)
	if err != nil {
		return JobInfo{}, err
	}
	return s.submit(k.name, req, run)
}

// handler is the kind's HTTP submit route.
func (k jobKind[R]) handler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeBody(w, r, &req) {
			return
		}
		info, err := k.submit(s, req)
		submitResponse(w, info, err)
	}
}

// decode rebuilds the runFunc of a journaled request.  Unlike the HTTP
// route it ignores unknown fields, so a request field that a later
// version drops does not fail the replay of an older journal.
func (k jobKind[R]) decode(s *Server, raw []byte) (runFunc, error) {
	var req R
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	return k.run(s, req)
}

// recordRun decodes and validates a journaled submit record into its
// runFunc without running it.
func (s *Server) recordRun(rec journalRecord) (runFunc, error) {
	decode, ok := replayers[rec.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q", rec.Kind)
	}
	return decode(s, rec.Req)
}

// cachedRun is the last step of the evaluate and pipeline kinds: the
// runFunc serves key's result from the content-addressed cache, joins an
// identical computation already in flight, or computes and stores it.
func cachedRun[T any](s *Server, key string, compute func(context.Context) (T, error)) runFunc {
	return func(ctx context.Context) (any, bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		res, cached, err := cachedArtifact(s, ctx, key,
			func() (T, error) { return compute(ctx) },
			func(v T) ([]byte, error) { return json.Marshal(v) },
			func(b []byte) (T, error) {
				var v T
				err := json.Unmarshal(b, &v)
				return v, err
			})
		if err != nil {
			return nil, false, err
		}
		return res, cached, nil
	}
}

// target is the accelerator a request runs — a built-in case study or an
// inline wire-format graph — with the images it runs over and the ml
// engine it trains, as an evaluate, pipeline or shard request spells
// them.
type target struct {
	app     string
	kernels int
	inline  *accel.WireApp
	images  ImageSpec
	engine  string // empty = the default engine, or none
}

// defaultGFKernels is the generic Gaussian filter's default
// coefficient-set count.
const defaultGFKernels = 2

// maxKernels caps the generic-GF coefficient sets one request may ask for
// (the paper uses 50) so a single submission cannot exhaust memory.
const maxKernels = 64

// Inline-accelerator limits: a request-supplied graph is untrusted, so its
// size is bounded before any evaluation work is queued.  The caps sit far
// above the paper's case studies (≤ ~60 nodes, ≤ 50 simulations) while
// keeping a single request from monopolizing a worker with an enormous
// netlist or simulation sweep.
const (
	maxAccelNodes = 1024
	maxAccelSims  = 64
)

// resolve validates t and materializes its accelerator.  Exactly one of
// app and inline must be set; inline specs are strictly validated —
// structure, widths, input registration, window binding and size caps —
// before they can reach a worker.
func (t target) resolve() (*accel.ImageApp, error) {
	if t.kernels > maxKernels {
		return nil, fmt.Errorf("kernels %d exceeds the limit of %d", t.kernels, maxKernels)
	}
	var app *accel.ImageApp
	var err error
	switch spec := t.inline; {
	case spec != nil && t.app != "":
		return nil, fmt.Errorf("request sets both app %q and an inline accelerator; use one", t.app)
	case spec == nil && t.app == "":
		return nil, fmt.Errorf("request needs an app name (sobel, fixedgf, genericgf) or an inline accelerator")
	case spec != nil:
		if n := len(spec.Graph.Nodes); n > maxAccelNodes {
			return nil, fmt.Errorf("inline accelerator has %d nodes, limit is %d", n, maxAccelNodes)
		}
		if n := len(spec.Sims); n > maxAccelSims {
			return nil, fmt.Errorf("inline accelerator has %d simulations, limit is %d", n, maxAccelSims)
		}
		if app, err = spec.App(); err != nil {
			return nil, fmt.Errorf("inline accelerator: %w", err)
		}
	default:
		// Kernels only matter for the generic Gaussian filter.
		kernels := t.kernels
		if kernels <= 0 {
			kernels = defaultGFKernels
		}
		if app, err = apps.New(t.app, kernels); err != nil {
			return nil, err
		}
	}
	if err := validateImages(t.images); err != nil {
		return nil, err
	}
	if t.engine != "" {
		if _, err := ml.EngineByName(t.engine); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// accelRequest is a request over an accelerator: an evaluate or pipeline
// request, or the model context of a shard request.
type accelRequest interface {
	target() target
	// canonical returns the key of the library the request runs over and
	// the request as its content key sees it: defaulted, with the library
	// and accelerator fields zeroed.  The library key and the
	// accelerator's canonical hash stand for those, so equivalent
	// spellings collide.
	canonical() (libKey string, canon any, err error)
}

// prepare resolves and validates a request's target and returns the
// accelerator and the request's content key: the canonical hash of the
// library key, the accelerator's name-invariant canonical hash and the
// canonical request.  A named app and its inline spelling share a key.
func prepare(r accelRequest) (*accel.ImageApp, string, error) {
	app, err := r.target().resolve()
	if err != nil {
		return nil, "", err
	}
	libKey, canon, err := r.canonical()
	if err != nil {
		return nil, "", err
	}
	b, err := json.Marshal(struct {
		LibKey  string `json:"libKey"`
		AppHash string `json:"appHash"`
		Rest    any    `json:"rest"`
	}{libKey, app.CanonicalHash(), canon})
	if err != nil {
		return nil, "", err
	}
	return app, acl.HashBytes(b), nil
}

func (r EvaluateRequest) target() target {
	return target{r.App, r.Kernels, r.Accelerator, r.Images, ""}
}

func (r EvaluateRequest) canonical() (string, any, error) {
	libKey, err := r.Library.Key()
	r.Images = r.Images.normalized()
	r.Library, r.App, r.Kernels, r.Accelerator = LibraryRequest{}, "", 0, nil
	return libKey, r, err
}

func (r PipelineRequest) target() target {
	return target{r.App, r.Kernels, r.Accelerator, r.Images, r.Engine}
}

func (r PipelineRequest) canonical() (string, any, error) {
	libKey, err := r.Library.Key()
	r = r.normalized()
	r.Library, r.App, r.Kernels, r.Accelerator = LibraryRequest{}, "", 0, nil
	return libKey, r, err
}

// normalized applies the execution path's defaulting (core.DefaultConfig
// budgets, default engines, seed 1) so equivalent requests hash to the
// same content key.  It is also the model-context defaulting of shard
// requests (see SearchShardRequest.pipeline).
func (r PipelineRequest) normalized() PipelineRequest {
	r.Images = r.Images.normalized()
	d := core.DefaultConfig()
	if r.TrainConfigs <= 0 {
		r.TrainConfigs = d.TrainConfigs
	}
	if r.TestConfigs <= 0 {
		r.TestConfigs = d.TestConfigs
	}
	if r.SearchEvals <= 0 {
		r.SearchEvals = d.SearchEvals
	}
	if r.Stagnation <= 0 {
		r.Stagnation = d.Stagnation
	}
	if r.Seed == 0 {
		r.Seed = d.Seed
	}
	if r.Engine == "" {
		r.Engine = d.Engine.Name
	}
	if r.Search.Engine == "" {
		r.Search.Engine = dse.DefaultEngineName
	}
	if r.Search.Seed == 0 {
		// The execution path derives seed+300 (the historical explore
		// seed) from an unset search seed; normalizing the derivation here
		// makes the explicit spelling hash to the same key.
		r.Search.Seed = r.Seed + 300
	}
	return r
}

// Image-set limits: per-dimension bounds small enough that their product
// cannot overflow int64, plus a total pixel budget (~28× the paper's full
// 24-image 384×256 set) so a single job cannot exhaust memory.
const (
	maxImageCount  = 4096
	maxImageDim    = 8192
	maxImagePixels = 1 << 26
)

// validateImages rejects impossible or abusive image specs without
// materializing any pixels — cheap enough for the HTTP submission path.
func validateImages(spec ImageSpec) error {
	if spec.Count <= 0 || spec.Width <= 0 || spec.Height <= 0 {
		return fmt.Errorf("images need positive count/width/height, got %d/%d/%d",
			spec.Count, spec.Width, spec.Height)
	}
	// Bound each dimension before forming the product so the budget check
	// cannot be bypassed by overflow.
	if spec.Count > maxImageCount || spec.Width > maxImageDim || spec.Height > maxImageDim {
		return fmt.Errorf("image spec %d/%d/%d exceeds the per-dimension limits %d/%d/%d",
			spec.Count, spec.Width, spec.Height, maxImageCount, maxImageDim, maxImageDim)
	}
	if px := int64(spec.Count) * int64(spec.Width) * int64(spec.Height); px > maxImagePixels {
		return fmt.Errorf("image set of %d pixels exceeds the %d-pixel limit", px, int64(maxImagePixels))
	}
	return nil
}

// buildImages materializes the deterministic benchmark image set of a
// spec that target.resolve accepted.
func buildImages(spec ImageSpec) []*imagedata.Image {
	spec = spec.normalized()
	return imagedata.BenchmarkSet(spec.Count, spec.Width, spec.Height, spec.Seed)
}

// observerKey carries a running job's stage observer through its run
// context.
type observerKey struct{}

// stageObserver returns the stage observer of the job running under ctx,
// or nil outside a job (shard requests, tests calling compute paths
// straight).
func stageObserver(ctx context.Context) core.StageObserver {
	observe, _ := ctx.Value(observerKey{}).(core.StageObserver)
	return observe
}
