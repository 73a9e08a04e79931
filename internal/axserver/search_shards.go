package axserver

import (
	"context"
	"fmt"
	"net/http"

	"autoax/internal/accel"
	"autoax/internal/dse"
	"autoax/internal/fleet"
)

// Shard-endpoint error codes (errorBody.Code): the typed 4xx contract a
// fleet coordinator programs against.
const (
	codeBadVersion     = "bad_version"
	codeUnknownEngine  = "unknown_engine"
	codeInvalidBudget  = "invalid_budget"
	codeUnknownLibrary = "unknown_library"
	codeBadRequest     = "bad_request"
	// codeDraining rejects new shards during drain-then-stop shutdown; a
	// coordinator treats the 503 as transient and retries elsewhere.
	codeDraining = "draining"
)

// SearchShardRequest is the wire form of POST /v1/search/shards — one
// deterministic slice of a distributed search, executed synchronously.
// Only seeds and hashes travel: the library is NOT carried, the worker
// resolves Shard.LibraryHash against its own content-addressed cache
// (404 unknown_library when absent — build it first via POST
// /v1/libraries).  The remaining fields are the model context, everything
// needed to deterministically rebuild the trained estimators the shard
// searches over; workers given the same context build bit-identical
// models, so any worker executing a given shard returns the identical
// archive.
type SearchShardRequest struct {
	// Version is the fleet shard protocol version the client speaks;
	// must equal fleet.ProtocolVersion.
	Version int `json:"version"`

	// Accelerator addressing, as in PipelineRequest: a named case study
	// (App, optionally Kernels) or an inline wire-format graph.
	App         string         `json:"app,omitempty"`
	Kernels     int            `json:"kernels,omitempty"`
	Accelerator *accel.WireApp `json:"accelerator,omitempty"`
	Images      ImageSpec      `json:"images"`

	// Model-training budgets and engine (zero = core defaults); Seed is
	// the model-construction seed (0 = default).
	TrainConfigs int    `json:"trainConfigs,omitempty"`
	TestConfigs  int    `json:"testConfigs,omitempty"`
	Engine       string `json:"engine,omitempty"` // ml engine; empty = default
	Seed         int64  `json:"seed,omitempty"`

	// Shard is the slice of search to run: library hash, search engine,
	// derived seed, and budget.
	Shard fleet.ShardSpec `json:"shard"`
}

// SearchShardResponse echoes the shard identity and returns only the
// archive survivors, in staircase order.
type SearchShardResponse struct {
	Version     int                `json:"version"`
	LibraryHash string             `json:"libraryHash"`
	Engine      string             `json:"engine"`
	Seed        int64              `json:"seed"`
	Evaluations int                `json:"evaluations"`
	Points      []fleet.ShardPoint `json:"points"`
}

// shardError pairs an HTTP status with a machine-readable code.
type shardError struct {
	status int
	code   string
	err    error
}

func (e *shardError) Error() string { return e.err.Error() }

func shardErr(status int, code string, format string, args ...any) *shardError {
	return &shardError{status: status, code: code, err: fmt.Errorf(format, args...)}
}

// pipeline returns the pipeline request whose train stage builds r's
// models: the shard's model context, defaulted and built through the
// same code as a pipeline job's.
func (r SearchShardRequest) pipeline() PipelineRequest {
	return PipelineRequest{
		App:          r.App,
		Kernels:      r.Kernels,
		Accelerator:  r.Accelerator,
		Images:       r.Images,
		TrainConfigs: r.TrainConfigs,
		TestConfigs:  r.TestConfigs,
		Engine:       r.Engine,
		Seed:         r.Seed,
	}
}

func (r SearchShardRequest) target() target { return r.pipeline().target() }

// canonical content-addresses the model context: the library hash and
// the defaulted training fields.  The shard spec and protocol version
// are left out, so every shard over the same context shares one model
// build.
func (r SearchShardRequest) canonical() (string, any, error) {
	p := r.pipeline().normalized()
	return r.Shard.LibraryHash, SearchShardRequest{
		Images:       p.Images,
		TrainConfigs: p.TrainConfigs,
		TestConfigs:  p.TestConfigs,
		Engine:       p.Engine,
		Seed:         p.Seed,
	}, nil
}

// handleSearchShard is POST /v1/search/shards: validate with typed codes,
// bound concurrency to the worker pool size, and run synchronously under
// the request context so a dropped coordinator connection cancels the
// shard.
func (s *Server) handleSearchShard(w http.ResponseWriter, r *http.Request) {
	var req SearchShardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, serr := s.runSearchShard(r.Context(), req)
	if serr != nil {
		writeJSON(w, serr.status, errorBody{Error: serr.err.Error(), Code: serr.code})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runSearchShard validates and executes one shard.
func (s *Server) runSearchShard(ctx context.Context, req SearchShardRequest) (SearchShardResponse, *shardError) {
	var zero SearchShardResponse
	if s.draining.Load() {
		return zero, shardErr(http.StatusServiceUnavailable, codeDraining,
			"server is draining; dispatch this shard to another worker")
	}
	if req.Version != fleet.ProtocolVersion {
		return zero, shardErr(http.StatusBadRequest, codeBadVersion,
			"unsupported shard protocol version %d (this server speaks %d)",
			req.Version, fleet.ProtocolVersion)
	}
	shard := req.Shard
	if _, err := dse.SearchEngineByName(shard.Engine); err != nil {
		return zero, &shardError{http.StatusBadRequest, codeUnknownEngine, err}
	}
	if shard.Evaluations <= 0 {
		return zero, shardErr(http.StatusBadRequest, codeInvalidBudget,
			"shard evaluations must be positive, got %d", shard.Evaluations)
	}
	if shard.Population < 0 || shard.Stagnation < 0 {
		return zero, shardErr(http.StatusBadRequest, codeInvalidBudget,
			"shard population/stagnation must be non-negative, got %d/%d",
			shard.Population, shard.Stagnation)
	}
	if shard.LibraryHash == "" {
		return zero, shardErr(http.StatusBadRequest, codeUnknownLibrary,
			"shard spec has no library hash")
	}
	libBytes, ok := s.LibraryBytes(shard.LibraryHash)
	if !ok {
		return zero, shardErr(http.StatusNotFound, codeUnknownLibrary,
			"no library %s in this worker's cache; build it first (POST /v1/libraries)",
			shard.LibraryHash)
	}
	app, modelKey, err := prepare(req)
	if err != nil {
		return zero, &shardError{http.StatusBadRequest, codeBadRequest, err}
	}
	// A context that ends (the coordinator hung up, the server stops) is
	// transient, not a fault of the request: 503 with no code, like a
	// submission racing shutdown.
	ended := func() *shardError {
		return &shardError{http.StatusServiceUnavailable, "", ctx.Err()}
	}

	// Bound concurrent shard executions to the worker-pool size; shards
	// bypass the async job queue (they are synchronous by design) but
	// must not oversubscribe the machine.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	case <-ctx.Done():
		return zero, ended()
	}

	m, err := s.sharedModels(ctx, modelKey, func(ctx context.Context) (*dse.Models, error) {
		return s.buildShardModels(ctx, req, app, libBytes)
	})
	if err != nil {
		if ctx.Err() != nil {
			return zero, ended()
		}
		return zero, &shardError{http.StatusInternalServerError, "",
			fmt.Errorf("building shard models: %w", err)}
	}
	engine := shard.Engine
	if engine == "" {
		engine = dse.DefaultEngineName
	}
	arch, err := dse.RunEngine(ctx, engine, m, dse.SearchOptions{
		Evaluations: shard.Evaluations,
		Stagnation:  shard.Stagnation,
		Population:  shard.Population,
		Seed:        shard.Seed,
	})
	if err != nil {
		if ctx.Err() != nil {
			return zero, ended()
		}
		return zero, &shardError{http.StatusInternalServerError, "",
			fmt.Errorf("running shard: %w", err)}
	}
	return SearchShardResponse{
		Version:     fleet.ProtocolVersion,
		LibraryHash: shard.LibraryHash,
		Engine:      engine,
		Seed:        shard.Seed,
		Evaluations: shard.Evaluations,
		Points:      fleet.ResultFromArchive(arch).Points,
	}, nil
}

// modelCacheEntries bounds the in-process trained-model memo.  Models are
// large (forests + reduced spaces) and a fleet worker typically serves
// one or two model contexts at a time, so the cap is small.
const modelCacheEntries = 4

// sharedModels returns the trained models of a shard's model context,
// memoized and singleflighted: concurrent shards over the same context
// share one build, later shards reuse it, and failed builds are not
// memoized, so a retry recomputes instead of replaying the error forever.
// The first caller for key (the leader) serves the memo or runs build
// under its own ctx, and later callers wait for it.  A waiter whose leader failed — its
// context ended, its build failed or panicked — retries, becoming the
// leader if no one else has, so one cancelled coordinator cannot fail the
// shards of another.
func (s *Server) sharedModels(ctx context.Context, key string, build func(context.Context) (*dse.Models, error)) (*dse.Models, error) {
	m, _, err := s.modelFlight.Do(ctx, key, func() (*dse.Models, error) {
		s.modelMu.Lock()
		m, ok := s.models.Get(key)
		s.modelMu.Unlock()
		if ok {
			return m, nil
		}
		m, err := build(ctx)
		if err == nil {
			s.modelMu.Lock()
			s.models.Put(key, m, 1)
			s.modelMu.Unlock()
		}
		return m, err
	})
	return m, err
}

// buildShardModels deterministically rebuilds the trained estimators for
// a shard's model context by running the pipeline's model stages (reduce,
// samples, train) over the cached library.  Determinism note: sample
// evaluation is order-stable at any GOMAXPROCS and engine fits are
// seeded, so two workers with the same context build models with
// identical predictions — the property the fleet's bit-identity contract
// rests on.
func (s *Server) buildShardModels(ctx context.Context, req SearchShardRequest, app *accel.ImageApp, libBytes []byte) (*dse.Models, error) {
	lib, err := s.decodeLibrary(req.Shard.LibraryHash, libBytes)
	if err != nil {
		return nil, fmt.Errorf("loading library %s: %w", req.Shard.LibraryHash, err)
	}
	pipe, err := s.newPipeline(ctx, req.pipeline().normalized(), app, lib)
	if err != nil {
		return nil, err
	}
	if err := pipe.TrainContext(ctx); err != nil {
		return nil, err
	}
	return pipe.Models, nil
}
