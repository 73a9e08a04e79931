package axserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"autoax/internal/fleet"
)

// maxBodyBytes bounds request bodies; library specs and configuration
// batches are small, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP routes.  Every route is wrapped with
// per-route request/latency/status metrics (see instrument); the route
// label is the mux pattern, so path parameters do not explode cardinality.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(pattern, h))
	}
	route("POST /v1/libraries", libraryJobs.handler(s))
	route("GET /v1/libraries/{key}", s.handleGetLibrary)
	route("POST /v1/evaluate", evaluateJobs.handler(s))
	route("POST /v1/pipelines", pipelineJobs.handler(s))
	route("POST /v1/search/shards", s.handleSearchShard)
	route("GET /v1/jobs", s.handleListJobs)
	route("GET /v1/jobs/{id}", s.handleGetJob)
	route("DELETE /v1/jobs/{id}", s.handleCancelJob)
	route("GET /v1/stats", s.handleStats)
	route("GET /v1/healthz", s.handleHealthz)
	route("GET /v1/metrics", s.handleMetrics)
	return mux
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends the JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody strictly decodes a JSON request body into v, writing the
// error response itself (400 for malformed JSON, 413 for oversized
// bodies).  It reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", int64(maxBodyBytes)))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		}
		return false
	}
	return true
}

// submitResponse accepts a job submission: 202 with the queued job info,
// 429 queue_full with Retry-After when admission control sheds the
// request, 503 draining while the server drains, 503 when racing
// shutdown, 500 when the write-ahead journal append failed, 400 for
// invalid requests.
func submitResponse(w http.ResponseWriter, info JobInfo, err error) {
	var full *QueueFullError
	switch {
	case errors.As(err, &full):
		secs := int(full.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Code: "queue_full"})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Code: "draining"})
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errJournal):
		writeError(w, http.StatusInternalServerError, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, info)
	}
}

func (s *Server) handleGetLibrary(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.LibraryBytes(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no library with key %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job with id %s", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCancelJob cancels a job.  For a running job the 200 response only
// acknowledges that cancellation was requested (CancelResponse.BestEffort):
// a job that completes before observing the cancel at a checkpoint still
// lands succeeded, so clients must poll the job for the actual outcome.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok, cancellable := s.manager.Cancel(id)
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, fmt.Errorf("no job with id %s", id))
	case !cancellable:
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s is already %s", id, info.State),
		})
	default:
		writeJSON(w, http.StatusOK, CancelResponse{Job: info, BestEffort: info.State == JobRunning})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz reports liveness and advertises the fleet shard protocol
// version, so coordinators can verify worker capability before
// dispatching a distributed search.  A draining server still answers 200
// (it is alive and finishing in-flight work) but reports "draining" so
// load balancers stop routing new work to it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthzResponse{Status: status, Shards: fleet.ProtocolVersion})
}
