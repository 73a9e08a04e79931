package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autoax/axclient"
	"autoax/internal/axserver"
)

// processStart anchors the first set-up: setup_s of the first repetition
// counts from the child's start.
var processStart = time.Now()

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    scale
	tmpRoot  string // parent of the per-server temp directories
	log      io.Writer
}

// env is one in-process server under test and the client driving it.
type env struct {
	sc     scale
	seed   int64
	dir    string
	srv    *axserver.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *axclient.Client

	// The library shared by every request of the workload (built during
	// set-up), its canonical key and per-op circuit counts.
	lib    axserver.LibraryRequest
	libKey string
	libOps map[string]int
}

// startEnv starts a server configured like a durable `autoax serve`:
// fresh artifact-cache, compiled-program and journal directories and the
// default worker count, behind a loopback listener.  The client's
// transport is capped at nproc connections.
func startEnv(ctx context.Context, cfg config) (*env, error) {
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "server-")
	if err != nil {
		return nil, err
	}
	srv, err := axserver.New(axserver.Options{
		CacheDir:        filepath.Join(dir, "cache"),
		ProgramCacheDir: filepath.Join(dir, "programs"),
		JournalDir:      filepath.Join(dir, "journal"),
	})
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: leftovers stay under the git-ignored build directory
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = os.RemoveAll(dir) // best effort, as above
		return nil, err
	}
	nproc := runtime.NumCPU()
	e := &env{
		sc: cfg.scale, seed: cfg.seed, dir: dir, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		tr:     &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	e.client = axclient.New("http://"+ln.Addr().String(), axclient.WithHTTPClient(&http.Client{Transport: e.tr}))
	if err := e.client.Healthz(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("server health check: %w", err)
	}
	return e, nil
}

// close stops the listener, the server and its workers, and removes the
// server's directories.
func (e *env) close() {
	_ = e.hs.Close()
	<-e.served
	e.srv.Close()
	e.tr.CloseIdleConnections()
	_ = os.RemoveAll(e.dir) // best effort, as in startEnv
}

// setUp builds the workload's shared library (if any) and runs the two
// warm-up jobs, on a fresh server.  The probe is sampled before the first
// step and after each.
func setUp(ctx context.Context, cfg config, w workload, probe *speedProbe) (*env, []*jobRun, error) {
	probe.sample()
	e, err := startEnv(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	probe.sample()
	if w.shared != nil {
		// The shared library is the same on every run, like the paper's one
		// fixed library; the seed varies the requests that use it.
		e.lib = axserver.LibraryRequest{Specs: w.shared(cfg.scale), Seed: derive(0, "shared-library", 0)}
		run := &jobRun{req: jobReq{body: e.lib, repeatOf: -1}}
		e.execute(ctx, run)
		if run.err != nil {
			e.close()
			return nil, nil, fmt.Errorf("shared library: %w", run.err)
		}
		res, err := axclient.LibraryResultOf(run.info)
		if err != nil {
			e.close()
			return nil, nil, err
		}
		e.libKey, e.libOps = res.Key, res.Ops
		probe.sample()
	}
	warm := []*jobRun{{idx: -1}, {idx: -2}}
	for _, run := range warm {
		run.req = w.request(e, run.idx)
		e.execute(ctx, run)
		if run.err != nil {
			e.close()
			return nil, nil, fmt.Errorf("warm-up: %w", run.err)
		}
		probe.sample()
	}
	return e, warm, nil
}

// runWorkload performs one benchmark run: scale.setups set-ups (all but
// the last torn down), the measured phase, then the untimed verifiers.
// A set-up's time is scaled to the reference kernel's uncontended speed.
func runWorkload(ctx context.Context, w workload, cfg config) (childReport, error) {
	var setups []float64
	var e *env
	var warm []*jobRun
	probe := &speedProbe{}
	t0 := processStart
	for k := 0; k < cfg.scale.setups; k++ {
		if k > 0 {
			e.close()
			t0 = time.Now()
		}
		first := len(probe.samples)
		var err error
		if e, warm, err = setUp(ctx, cfg, w, probe); err != nil {
			return childReport{}, err
		}
		setups = append(setups, probe.scaledSince(t0, first))
	}
	defer os.Remove(cfg.tmpRoot) // only succeeds once empty
	defer e.close()

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if err := resetVmHWM(); err != nil {
		return childReport{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	begin := takeSnapshot(ctx, e)
	rss := startRSSSampler(50 * time.Millisecond)
	start := time.Now()
	var runs []*jobRun
	if w.open {
		runs = openLoop(ctx, e, w, dur, probe)
	} else {
		runs = closedLoop(ctx, e, w, dur, tr, probe)
	}
	wall := time.Since(start)
	for _, r := range runs {
		r.speed = probe.factor(r.due, r.info.Ended)
	}
	rssMB, rssErr := rss.Stop()
	end := takeSnapshot(ctx, e)
	peak, peakErr := readVmHWM()
	if err := errors.Join(begin.err, end.err, rssErr, peakErr); err != nil {
		return childReport{}, err
	}

	// Verifiers run untimed, after the measured phase and its snapshots:
	// their in-process evaluation records into the same metrics registry.
	all := append(append([]*jobRun(nil), warm...), runs...)
	if err := w.verify(ctx, e, all); err != nil {
		return childReport{}, err
	}
	prefix := runs
	if !w.open && len(prefix) > cfg.scale.digestJobs {
		prefix = prefix[:cfg.scale.digestJobs]
	}
	digest := digestOf(append(append([]*jobRun(nil), warm...), prefix...))
	fmt.Fprintf(cfg.log, "# digest=%s jobs=%d measured=%d\n", digest, len(warm)+len(prefix), len(runs))

	rep := childReport{Digest: digest, Valid: true}
	rep.Attempted = len(runs)
	for _, r := range runs {
		if !r.ok() {
			rep.Failed++
			fmt.Fprintf(cfg.log, "# failed job %d: %v\n", r.idx, r.err)
		}
	}
	for _, r := range warm {
		if !r.ok() {
			rep.Failed++
			fmt.Fprintf(cfg.log, "# failed warm-up %d: %v\n", r.idx, r.err)
		}
	}
	rep.Correct = rep.Failed == 0
	ph := phase{warm: warm, runs: runs, wall: wall, begin: begin, end: end, setups: setups,
		rssMB: rssMB, peakMB: peak, probe: probe, tr: tr}
	if late := ph.lateP99(); late > 20*time.Millisecond {
		rep.Valid = false
		fmt.Fprintf(cfg.log, "# invalid run: generator late p99 %v exceeds 20ms\n", late)
	}
	if cfg.trace {
		rep.Metrics = ph.layerMetrics()
		if err := tr.write(cfg.traceOut, ph); err != nil {
			return childReport{}, err
		}
		fmt.Fprintf(cfg.log, "# trace=%s\n", cfg.traceOut)
	} else {
		rep.Metrics = ph.endToEndMetrics()
	}
	return rep, nil
}

// digestOf hashes the result payloads of runs, in order.
func digestOf(runs []*jobRun) string {
	h := sha256.New()
	for _, r := range runs {
		if r.ok() {
			h.Write(r.info.Result)
		} else {
			h.Write([]byte("failed"))
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
