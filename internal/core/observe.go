package core

import (
	"sync/atomic"

	"autoax/internal/obs"
)

// Stage names, in execution order, as reported to StageObserver and used
// in the `stage` label of the pipeline metrics.
const (
	StageReduce   = "reduce"
	StageSamples  = "samples"
	StageTrain    = "train"
	StageExplore  = "explore"
	StageFinalize = "finalize"
)

// StageOrder lists the pipeline stages in execution order — consumers
// rendering or validating progress use it instead of hard-coding names.
var StageOrder = []string{StageReduce, StageSamples, StageTrain, StageExplore, StageFinalize}

// StageObserver receives live stage progress from a pipeline run: the
// current stage name, the work items completed so far, and the stage's
// total (0 when unknown).  It is called once when a stage starts
// (done=0), as work completes, and once when the stage finishes
// (done=total).  Calls may arrive concurrently from the parallel
// precise-evaluation workers; observers must be safe for concurrent use
// and must be cheap — they sit on the evaluation path.
type StageObserver func(stage string, done, total int64)

// stageRun tracks one executing stage: the wall-time span recorded into
// the process registry and the (possibly concurrent) progress counter
// forwarded to the pipeline's observer.
type stageRun struct {
	obs   StageObserver
	name  string
	total int64
	done  atomic.Int64
	span  obs.Span
	items *obs.Counter
}

// startStage opens the stage's span and announces done=0.
func (p *Pipeline) startStage(name string, total int64) *stageRun {
	r := &stageRun{
		obs:   p.Observer,
		name:  name,
		total: total,
		span:  obs.Default().StartSpan(`autoax_pipeline_stage_us{stage="` + name + `"}`),
		items: obs.Default().Counter(`autoax_pipeline_stage_items_total{stage="` + name + `"}`),
	}
	r.emit(0)
	return r
}

// step records n more completed items.  Safe for concurrent use.
func (r *stageRun) step(n int64) { r.emit(r.done.Add(n)) }

// deltas adapts one search run's absolute progress callback
// (dse.SearchOptions.Progress) to step, so concurrent runs sharing the
// stage sum to its total.  Each run needs its own adapter.
func (r *stageRun) deltas() func(done, total int) {
	last := 0
	return func(done, _ int) {
		r.step(int64(done - last))
		last = done
	}
}

func (r *stageRun) emit(done int64) {
	if r.obs != nil {
		r.obs(r.name, done, r.total)
	}
}

// finish closes the span, publishes the item count, and re-announces the
// final progress.  It is safe to defer on error paths: a stage that
// aborted mid-way reports its true partial count, not done=total.
func (r *stageRun) finish() {
	r.span.Finish()
	if d := r.done.Load(); d > 0 {
		r.items.Add(d)
	}
	r.emit(r.done.Load())
}
