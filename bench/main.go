// Command bench is the end-to-end job benchmark of the autoax HTTP service.
//
// It starts an in-process axserver configured like a durable `autoax
// serve` (fresh cache, compiled-program and journal directories, default
// workers), drives it through axclient from the same process, and reports
// submit-to-done latency, throughput, set-up time, peak memory and answer
// quality per workload — or, with -trace 1, the per-layer breakdown read
// from /v1/stats, /v1/metrics deltas, job timestamps and runtime/metrics,
// plus a Chrome trace-event file.
//
// Every workload runs in its own child process (the binary re-executes
// itself), so peak memory and runtime state are per workload.  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run from the repository root with bench/run.sh (see bench/README.md):
//
//	bash bench/run.sh --workload pipeline-sobel --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// childTimeout bounds one workload's child process, so that one
// invocation ends within 180 s.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	runs     int
}

func main() {
	var o options
	var trace int
	var child bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every request is generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print per-layer metrics and write a Chrome trace")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace file (default .bench_build/trace-<workload>-<seed>.json)")
	flag.IntVar(&o.runs, "runs", 0, "calibration: run each workload N times with the same seed and print per-metric quartiles and distinct digests")
	flag.BoolVar(&child, "child", false, "internal: run one workload in this process")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	names, err := selectWorkloads(o.workload)
	if err != nil {
		fatalf("%v", err)
	}
	if child {
		runChild(o)
		return
	}
	if o.runs > 0 {
		calibrate(o, names)
		return
	}
	for _, name := range names {
		co := o
		co.workload = name
		rep, err := spawn(co, os.Stdout)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		b, _ := json.Marshal(rep.result)
		fmt.Println(string(b))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return names, nil
	}
	if _, ok := workloadByName(name); !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []string{name}, nil
}

// childReport is what a child prints as its last line: the result line
// plus the fields only the parent and calibration use.
type childReport struct {
	result
	Digest string `json:"digest"`
	Valid  bool   `json:"valid"`
}

// result is the summary line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spawn re-executes this binary for one workload, forwards the child's
// informational lines to out, and decodes its report.
func spawn(o options, out io.Writer) (childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-trace-out", o.traceOut}
	cmd := exec.CommandContext(ctx, self, args...)
	// The child is killed when this process dies, even by a signal.  The
	// kernel ties Pdeathsig to the forking thread, so it stays locked to
	// this goroutine until the child has been waited for.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childReport{}, err
	}
	if err := cmd.Start(); err != nil {
		return childReport{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(out, last)
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return childReport{}, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return childReport{}, fmt.Errorf("child report %q: %w", last, err)
	}
	return rep, nil
}

// runChild runs one workload in this process and prints its report.
func runChild(o options) {
	w, _ := workloadByName(o.workload)
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-5*time.Second)
	defer cancel()
	rep, err := runWorkload(ctx, w, config{
		seed: o.seed, seconds: o.seconds, trace: o.trace, traceOut: o.traceOut,
		scale: scales["full"], tmpRoot: filepath.Join(".bench_build", "tmp"), log: os.Stdout,
	})
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(b))
}

// commit returns the VCS revision stamped into the binary, when built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
