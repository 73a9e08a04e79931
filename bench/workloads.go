package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"autoax/internal/accel"
	"autoax/internal/apps"
	"autoax/internal/axserver"
)

// pollEvery is the fixed Jobs.Get cadence.  Latency is taken from the
// server's Ended timestamp, so the cadence never enters it.
const pollEvery = 5 * time.Millisecond

// scale sizes every workload.  full is the benchmark; smoke keeps the
// same shapes at a size the package test runs in seconds.
type scale struct {
	setups     int // set-ups per run; setup_s is their median
	maxJobs    int // closed-loop job cap; 0 bounds the loop by time only
	digestJobs int // closed-loop jobs the result digest covers; few enough that every run completes them

	coldSpecs  []axserver.SpecRequest // library-cold, per request
	sobelSpecs []axserver.SpecRequest // pipelines, shared
	gaussSpecs []axserver.SpecRequest // evaluate-mix, shared

	imgCount, imgW, imgH int
	train, test          int
	sobelEvals           int
	autoEvals            int

	evalConfigs int // configurations per evaluate request
	// rate is the evaluate-mix arrivals per second.  The full scale keeps
	// fresh evaluations near a fifth of one vCPU, so the two vCPUs, which
	// slow each other when both run, seldom overlap even when the host is
	// contended; at 8 req/s (about 45%) a contended minute queued and
	// doubled the run's latency.
	rate float64
}

const (
	repeatShare = 0.6 // evaluate-mix share of requests repeating an earlier one
	freshCheck  = 8   // 1 in freshCheck fresh evaluate results is re-evaluated in-process
	frontChecks = 3   // front configurations re-evaluated per pipeline job
)

var scales = map[string]scale{
	"full": {
		setups: 3, digestJobs: 4,
		coldSpecs:  []axserver.SpecRequest{{Op: "add8", Count: 16}, {Op: "add9", Count: 12}, {Op: "sub10", Count: 8}},
		sobelSpecs: []axserver.SpecRequest{{Op: "add8", Count: 30}, {Op: "add9", Count: 30}, {Op: "sub10", Count: 25}},
		gaussSpecs: []axserver.SpecRequest{{Op: "mul8", Count: 80}, {Op: "add16", Count: 60}},
		imgCount:   2, imgW: 64, imgH: 48,
		train: 200, test: 100, sobelEvals: 100000, autoEvals: 10000,
		evalConfigs: 32, rate: 4,
	},
	"smoke": {
		setups: 1, maxJobs: 2, digestJobs: 2,
		coldSpecs:  []axserver.SpecRequest{{Op: "add8", Count: 4}, {Op: "add9", Count: 3}},
		sobelSpecs: []axserver.SpecRequest{{Op: "add8", Count: 6}, {Op: "add9", Count: 6}, {Op: "sub10", Count: 5}},
		gaussSpecs: []axserver.SpecRequest{{Op: "mul8", Count: 5}, {Op: "add16", Count: 5}},
		imgCount:   1, imgW: 32, imgH: 24,
		train: 24, test: 12, sobelEvals: 2000, autoEvals: 500,
		evalConfigs: 4, rate: 3,
	},
}

// jobReq is one generated request: body is an axserver LibraryRequest,
// PipelineRequest or EvaluateRequest.
type jobReq struct {
	body     any
	repeatOf int // evaluate-mix: index of the request this repeats; -1 when fresh
}

// workload is one traffic mix.  request(e, i) generates measured request
// i from the run seed; i < 0 are the set-up warm-ups, which are the same
// reference requests under every seed (see env.seedFor).
type workload struct {
	name    string
	open    bool                               // Poisson arrivals instead of one closed-loop client
	shared  func(scale) []axserver.SpecRequest // library built during set-up; nil for none
	request func(e *env, i int) jobReq
	verify  func(ctx context.Context, e *env, runs []*jobRun) error
}

var workloads = []workload{
	{
		name:    "library-cold",
		request: libraryRequest,
		verify:  verifyLibraries,
	},
	{
		name:    "pipeline-sobel",
		shared:  func(sc scale) []axserver.SpecRequest { return sc.sobelSpecs },
		request: func(e *env, i int) jobReq { return pipelineRequest(e, i, false) },
		verify:  verifyPipelines,
	},
	{
		name:    "pipeline-auto",
		shared:  func(sc scale) []axserver.SpecRequest { return sc.sobelSpecs },
		request: func(e *env, i int) jobReq { return pipelineRequest(e, i, true) },
		verify:  verifyPipelines,
	},
	{
		name:    "evaluate-mix",
		open:    true,
		shared:  func(sc scale) []axserver.SpecRequest { return sc.gaussSpecs },
		request: evaluateRequest,
		verify:  verifyEvaluations,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// derive returns a positive seed for (run seed, stream, index): every
// request seed is distinct and a pure function of the run seed.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(i)))
	h.Write(buf[:])
	h.Write([]byte(stream))
	return int64(h.Sum64()>>2) + 1 // < 2^62, so seed+offset arithmetic cannot overflow
}

// seedFor is the seed request i is generated from: the run seed for
// measured requests, 0 for the warm-ups.  The warm-ups are thus fixed
// reference requests whose answers front_hv scores, so answer quality is
// compared on identical requests whatever the seed.
func (e *env) seedFor(i int) int64 {
	if i < 0 {
		return 0
	}
	return e.seed
}

func libraryRequest(e *env, i int) jobReq {
	return jobReq{repeatOf: -1, body: axserver.LibraryRequest{
		Specs: e.sc.coldSpecs,
		Seed:  derive(e.seedFor(i), "library", i),
	}}
}

// imageCorpus is the number of fixed image sets requests draw from, like
// the paper's fixed benchmark images.  Closed-loop job i uses set
// (i + rotation) mod imageCorpus, the rotation derived from its seed, so
// any imageCorpus consecutive jobs cover every set once and a run's mix
// of image-dependent work does not change with the seed.
const imageCorpus = 8

func (e *env) images(i int) axserver.ImageSpec {
	k := (i + int(derive(e.seedFor(i), "image-rotation", 0)%imageCorpus)) % imageCorpus
	if k < 0 {
		k += imageCorpus
	}
	return corpusImages(e.sc, k)
}

func corpusImages(sc scale, k int) axserver.ImageSpec {
	return axserver.ImageSpec{Count: sc.imgCount, Width: sc.imgW, Height: sc.imgH,
		Seed: derive(0, "image-corpus", k)}
}

// evalImages is the one image set every evaluate request uses.
func (e *env) evalImages() axserver.ImageSpec { return corpusImages(e.sc, 0) }

func pipelineRequest(e *env, i int, auto bool) jobReq {
	evals := e.sc.sobelEvals
	if auto {
		evals = e.sc.autoEvals
	}
	return jobReq{repeatOf: -1, body: axserver.PipelineRequest{
		App:          "sobel",
		Library:      e.lib,
		Images:       e.images(i),
		TrainConfigs: e.sc.train,
		TestConfigs:  e.sc.test,
		SearchEvals:  evals,
		AutoEngine:   auto,
		Seed:         derive(e.seedFor(i), "pipeline", i),
	}}
}

// gaussApp is the accelerator evaluate-mix requests name: the generic
// Gaussian filter with the server's default two coefficient sets.
func gaussApp() *accel.ImageApp { return apps.GenericGF(apps.GenericGFKernels(2)) }

// unit maps (run seed, stream, index) to a uniform value in [0, 1).
func unit(seed int64, stream string, i int) float64 {
	return float64(derive(seed, stream, i)-1) / (1 << 62)
}

// evaluateRequest generates evaluate-mix request i.  Request 0 is always
// fresh; a later one repeats a uniformly chosen earlier fresh request with
// probability repeatShare.  Warm-ups are fresh and outside the repeat pool.
func evaluateRequest(e *env, i int) jobReq {
	isRepeat := func(j int) bool { return j > 0 && unit(e.seed, "mix", j) < repeatShare }
	if isRepeat(i) {
		var fresh []int
		for j := 0; j < i; j++ {
			if !isRepeat(j) {
				fresh = append(fresh, j)
			}
		}
		j := fresh[int(unit(e.seed, "repeat-of", i)*float64(len(fresh)))]
		r := evaluateRequest(e, j)
		r.repeatOf = j
		return r
	}
	g := gaussApp().Graph
	rng := rand.New(rand.NewSource(derive(e.seedFor(i), "configs", i)))
	cfgs := make([][]int, e.sc.evalConfigs)
	for c := range cfgs {
		for _, id := range g.OpNodes() {
			cfgs[c] = append(cfgs[c], rng.Intn(e.libOps[g.Nodes[id].Op.String()]))
		}
	}
	return jobReq{repeatOf: -1, body: axserver.EvaluateRequest{
		App:     "genericgf",
		Library: e.lib,
		Images:  e.evalImages(),
		Configs: cfgs,
	}}
}

// jobRun is one submitted request and everything observed about it.
type jobRun struct {
	idx  int
	req  jobReq
	due  time.Time // when the request was due; latency starts here
	sent time.Time // POST start (client clock)
	ack  time.Time // POST response received
	late time.Duration
	info axserver.JobInfo // terminal snapshot
	// polls counts Jobs.Get calls spent waiting for this job.
	polls int
	err   error // submit, job or verification failure
	// delta holds this job's /v1/metrics deltas (traced closed loops).
	delta *metricDelta
	// hv is the job's 2-D hypervolume (see README); hasHV marks it set.
	hv       float64
	hasHV    bool
	fidelity float64
	// speed is the host-speed factor of the job's span (speedProbe.factor).
	speed float64
}

func (r *jobRun) ok() bool { return r.err == nil }

func (r *jobRun) latency() time.Duration { return r.info.Ended.Sub(r.due) }

// normLatency is the latency in seconds scaled to the reference kernel's
// uncontended speed.
func (r *jobRun) normLatency() float64 { return r.latency().Seconds() * r.speed }

// submit posts the request and records the round trip.
func (e *env) submit(ctx context.Context, run *jobRun) (string, error) {
	run.sent = time.Now()
	var info axserver.JobInfo
	var err error
	switch b := run.req.body.(type) {
	case axserver.LibraryRequest:
		info, err = e.client.SubmitLibrary(ctx, b)
	case axserver.PipelineRequest:
		info, err = e.client.SubmitPipeline(ctx, b)
	case axserver.EvaluateRequest:
		info, err = e.client.SubmitEvaluate(ctx, b)
	default:
		err = fmt.Errorf("unknown request type %T", b)
	}
	run.ack = time.Now()
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return info.ID, nil
}

// poll fetches the job once; it reports whether the job is terminal and
// records a failed or cancelled outcome in run.err.
func (e *env) poll(ctx context.Context, run *jobRun, id string) (bool, error) {
	run.polls++
	info, err := e.client.Jobs.Get(ctx, id)
	if err != nil {
		return false, err
	}
	if !info.State.Terminal() {
		return false, nil
	}
	run.info = info
	if info.State != axserver.JobSucceeded {
		run.err = fmt.Errorf("job %s %s: %s", id, info.State, info.Error)
	}
	return true, nil
}

// execute runs one request to completion: due now, submit, then poll
// every pollEvery until terminal.
func (e *env) execute(ctx context.Context, run *jobRun) {
	run.due = time.Now()
	id, err := e.submit(ctx, run)
	if err != nil {
		run.err = err
		return
	}
	for {
		done, err := e.poll(ctx, run, id)
		if err != nil {
			run.err = err
			return
		}
		if done {
			return
		}
		select {
		case <-ctx.Done():
			run.err = ctx.Err()
			return
		case <-time.After(pollEvery):
		}
	}
}

// closedLoop is one client sending its next request when the previous
// one completes, until the phase length has passed.  The probe is sampled
// between jobs.  With a tracer, the metrics snapshots around each job give
// that job's exact deltas (only one job is in flight); their cost is
// charged to tracing, not latency.
func closedLoop(ctx context.Context, e *env, w workload, dur time.Duration, tr *tracer, probe *speedProbe) []*jobRun {
	var runs []*jobRun
	start := time.Now()
	for i := 0; time.Since(start) < dur && (e.sc.maxJobs == 0 || i < e.sc.maxJobs); i++ {
		if ctx.Err() != nil {
			break
		}
		run := &jobRun{idx: i, req: w.request(e, i)}
		probe.sample()
		var before snapshot
		if tr != nil {
			before = tr.snapshot(ctx, e)
		}
		e.execute(ctx, run)
		if tr != nil {
			after := tr.snapshot(ctx, e)
			run.delta = diff(before, after)
		}
		runs = append(runs, run)
	}
	probe.sample()
	return runs
}

// openLoop sends rate×dur requests at Poisson arrival times (uniform
// order statistics over the phase, i.e. a Poisson process conditioned on
// its count) regardless of completions.  One goroutine submits on
// schedule and records how late it ran; the calling goroutine polls every
// outstanding job each pollEvery and, while none is outstanding, samples
// the probe every probeEvery.
func openLoop(ctx context.Context, e *env, w workload, dur time.Duration, probe *speedProbe) []*jobRun {
	n := int(math.Round(e.sc.rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(derive(e.seed, "arrivals", 0)))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	runs := make([]*jobRun, n)
	for i := range runs {
		runs[i] = &jobRun{idx: i, req: w.request(e, i)}
	}

	type submitted struct {
		run *jobRun
		id  string
	}
	pending := make(chan submitted, n) // sized to the number of sends: the generator never blocks
	probe.sample()
	start := time.Now()
	go func() {
		defer close(pending)
		for i, run := range runs {
			run.due = start.Add(offsets[i])
			if d := time.Until(run.due); d > 0 {
				select {
				case <-ctx.Done():
					run.err = ctx.Err()
					continue
				case <-time.After(d):
				}
			}
			run.late = time.Since(run.due)
			id, err := e.submit(ctx, run)
			if err != nil {
				run.err = err
				continue
			}
			pending <- submitted{run, id}
		}
	}()

	var outstanding []submitted
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	in := pending
	for in != nil || len(outstanding) > 0 {
		select {
		case s, ok := <-in:
			if !ok {
				in = nil
			} else {
				outstanding = append(outstanding, s)
			}
			continue
		case <-tick.C:
		}
		if len(outstanding) == 0 && time.Since(probe.last()) >= probeEvery {
			probe.sample()
			continue
		}
		keep := outstanding[:0]
		for _, s := range outstanding {
			done, err := e.poll(ctx, s.run, s.id)
			switch {
			case err != nil:
				s.run.err = err
			case !done:
				keep = append(keep, s)
			}
		}
		outstanding = keep
	}
	probe.sample()
	return runs
}
