package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"autoax/internal/core"
)

// tracer records, for closed loops, a /v1/metrics snapshot before each
// submit and after each job ends, and charges the time they take to
// tracing.  Spans are built from job timestamps and those deltas when the
// run ends; spans inside the server are out of scope.
type tracer struct {
	spent time.Duration
}

func (t *tracer) snapshot(ctx context.Context, e *env) snapshot {
	t0 := time.Now()
	var s snapshot
	s.m, s.err = e.client.Metrics(ctx)
	t.spent += time.Since(t0)
	return s
}

// traceEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata), the JSON format Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders every measured job as a request span (due → Ended)
// holding queue (Created → Started) and exec (Started → Ended); exec holds
// the job's pipeline-stage or characterization spans, laid end to end
// from its metric deltas.  The submit round trip overlaps the server's
// queue span, so it sits on the job's own client track.
func (t *tracer) write(path string, p phase) error {
	var origin time.Time
	for _, r := range p.runs {
		if !r.due.IsZero() && (origin.IsZero() || r.due.Before(origin)) {
			origin = r.due
		}
	}
	us := func(at time.Time) float64 { return float64(at.Sub(origin)) / 1e3 }
	var evs []traceEvent
	span := func(tid int, cat, name string, from, to time.Time, args map[string]any) {
		evs = append(evs, traceEvent{Name: name, Cat: cat, Ph: "X", TS: us(from), Dur: float64(to.Sub(from)) / 1e3, PID: 1, TID: tid, Args: args})
	}
	for _, r := range p.runs {
		job, client := 2*r.idx+1, 2*r.idx+2
		evs = append(evs,
			traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: job, Args: map[string]any{"name": "job " + strconv.Itoa(r.idx)}},
			traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: client, Args: map[string]any{"name": "job " + strconv.Itoa(r.idx) + " client"}})
		if !r.ack.IsZero() {
			span(client, "axclient", "submit", r.sent, r.ack, nil)
		}
		info := r.info
		if info.Ended.IsZero() {
			continue
		}
		args := map[string]any{"id": info.ID, "kind": info.Kind, "state": string(info.State), "cached": info.Cached,
			"host_speed": r.speed}
		if r.hasHV {
			args["hv"] = r.hv
		}
		span(job, "bench", "request", r.due, info.Ended, args)
		span(job, "axserver", "queue", info.Created, info.Started, nil)
		span(job, "axserver", "exec", info.Started, info.Ended, nil)
		if r.delta == nil {
			continue
		}
		at := info.Started
		child := func(cat, name string, micros int64) {
			if micros <= 0 {
				return
			}
			end := at.Add(time.Duration(micros) * time.Microsecond)
			if end.After(info.Ended) { // keep children inside exec despite µs rounding
				end = info.Ended
			}
			span(job, cat, name, at, end, nil)
			at = end
		}
		child("acl", "acl.characterize", r.delta.sums[characterizeSeries])
		for _, st := range core.StageOrder {
			child("core", "core."+st, r.delta.sums[stageSeries(st)])
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
