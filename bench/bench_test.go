package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autoax/internal/axserver"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func smokeConfig(t *testing.T, seed int64, trace bool) config {
	dir := t.TempDir()
	return config{
		seed: seed, seconds: 2, trace: trace, traceOut: filepath.Join(dir, "trace.json"),
		scale: scales["smoke"], tmpRoot: filepath.Join(dir, "tmp"), log: io.Discard,
	}
}

// TestSmoke runs every workload at smoke scale: untraced and traced with
// seed 1, untraced with seed 2.  Every metric BENCHMARK.json names is
// emitted with its unit, no job fails, same-seed runs produce identical
// result digests, another seed a different one but the same front_hv,
// and the trace's stage spans nest inside their exec span.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ws := range spec.Workloads {
		w, ok := workloadByName(ws.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", ws.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64, trace bool) (childReport, config) {
				cfg := smokeConfig(t, seed, trace)
				rep, err := runWorkload(ctx, w, cfg)
				if err != nil {
					t.Fatalf("seed %d trace %v: %v", seed, trace, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("seed %d trace %v: correct=%v attempted=%d failed=%d", seed, trace, rep.Correct, rep.Attempted, rep.Failed)
				}
				return rep, cfg
			}
			plain, _ := run(1, false)
			traced, tcfg := run(1, true)
			other, _ := run(2, false)
			for _, m := range spec.EndToEnd {
				if got, ok := plain.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(plain.Metrics) != len(spec.EndToEnd) || len(traced.Metrics) != len(spec.PerLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(plain.Metrics), len(traced.Metrics), len(spec.EndToEnd), len(spec.PerLayer))
			}
			if plain.Digest != traced.Digest {
				t.Errorf("seed 1 digests differ: %s vs %s", plain.Digest, traced.Digest)
			}
			if plain.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 share digest %s", plain.Digest)
			}
			if a, b := plain.Metrics["front_hv"].Value, other.Metrics["front_hv"].Value; a != b {
				t.Errorf("front_hv depends on the seed: %v (seed 1) vs %v (seed 2)", a, b)
			}
			checkTraceNesting(t, tcfg.traceOut)
		})
	}
}

// checkTraceNesting asserts every core.* and acl.* span lies inside an
// exec span on the same track.
func checkTraceNesting(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	execs := map[int]traceEvent{}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "exec" {
			execs[ev.TID] = ev
		}
	}
	if len(execs) == 0 {
		t.Fatal("trace has no exec spans")
	}
	for _, ev := range tr.TraceEvents {
		if !strings.HasPrefix(ev.Name, "core.") && !strings.HasPrefix(ev.Name, "acl.") {
			continue
		}
		ex, ok := execs[ev.TID]
		if !ok || ev.TS < ex.TS || ev.TS+ev.Dur > ex.TS+ex.Dur+1e-3 {
			t.Errorf("span %s [%v, +%v] not inside its exec span %+v", ev.Name, ev.TS, ev.Dur, ex)
		}
	}
}

// TestSpeedProbe pins the host-speed arithmetic on synthetic samples: an
// uncontended one (refNominal) and one at half speed.
func TestSpeedProbe(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n float64) time.Time { return t0.Add(time.Duration(n * float64(time.Millisecond))) }
	p := &speedProbe{samples: []speedSample{
		{ms(0), ms(2), refNominal},
		{ms(100), ms(103), 2 * refNominal},
	}}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got, want := p.factor(ms(10), ms(90)), 2.0/3; !near(got, want) {
		t.Errorf("factor of a job between the samples = %v, want %v", got, want)
	}
	if got, want := p.factor(ms(-50), ms(-10)), 1.0; !near(got, want) {
		t.Errorf("factor of a job before every sample = %v, want %v (nearest sample)", got, want)
	}
	if got, want := p.factor(ms(110), ms(120)), 0.5; !near(got, want) {
		t.Errorf("factor of a job after every sample = %v, want %v (nearest sample)", got, want)
	}
	// 10 ms before the first sample at full speed, then 98 ms between the
	// samples at two thirds of it.
	if got, want := p.scaledSince(ms(-10), 0), 0.010+0.098*2/3; !near(got, want) {
		t.Errorf("scaledSince = %v, want %v", got, want)
	}
	if got, want := p.slowdown(), 1.5; !near(got, want) {
		t.Errorf("slowdown = %v, want %v", got, want)
	}
}

// TestVerifierRejectsTamperedFront flips the lowest bit of one returned
// front SSIM; the pipeline verifier must count the job as failed.
func TestVerifierRejectsTamperedFront(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w, _ := workloadByName("pipeline-sobel")
	e, warm, err := setUp(ctx, smokeConfig(t, 1, false), w, &speedProbe{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := w.verify(ctx, e, warm); err != nil {
		t.Fatal(err)
	}
	r := warm[0]
	if !r.ok() {
		t.Fatalf("untampered job failed verification: %v", r.err)
	}
	var res axserver.PipelineResult
	if err := json.Unmarshal(r.info.Result, &res); err != nil {
		t.Fatal(err)
	}
	res.Front[0].SSIM = math.Float64frombits(math.Float64bits(res.Front[0].SSIM) ^ 1)
	if r.info.Result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(ctx, e, warm); err != nil {
		t.Fatal(err)
	}
	if r.ok() {
		t.Fatal("verifier accepted a front with a flipped SSIM")
	}
}
