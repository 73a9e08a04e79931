// Package expt contains one driver per table and figure of the autoAx
// paper's evaluation (Tables 1–5, Figures 3–5).  Each driver prints a
// human-readable text table mirroring the paper's layout and, when OutDir
// is set, emits CSV series for plotting.
//
// Every driver accepts a Setup whose Scale selects the experiment size:
//
//	ScaleTiny  — seconds; used by unit/integration tests
//	ScaleSmall — minutes; the default for benchmarks and the CLI
//	ScalePaper — hours; Table-2-magnitude libraries and paper budgets
package expt

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/core"
	"autoax/internal/imagedata"
	"autoax/internal/ml"
)

// Scale selects the experiment size.
type Scale string

// Available scales.
const (
	ScaleTiny  Scale = "tiny"
	ScaleSmall Scale = "small"
	ScalePaper Scale = "paper"
)

// ParseScale converts a string flag into a Scale.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleTiny, ScaleSmall, ScalePaper:
		return Scale(s), nil
	}
	return "", fmt.Errorf("expt: unknown scale %q (want tiny, small or paper)", s)
}

// Setup parameterizes every experiment driver.
type Setup struct {
	Scale  Scale
	Seed   int64
	OutDir string // CSV destination; empty disables file output
	// SearchEngine names the dse engine driving the model-based searches
	// (pipelines, Table 4, stagnation ablation).  Empty selects
	// dse.DefaultEngineName — the paper's hill climber.
	SearchEngine string
}

// params bundles the per-scale knob settings.
type params struct {
	libCounts map[acl.Op]int

	numImages, imgW, imgH int
	gfImages              int // generic GF uses a smaller image subset (paper: 4 of 24)
	kernels               int // generic GF kernel count (paper: 50)

	trainSobel, testSobel int
	trainGF, testGF       int
	evalsSobel, evalsGF   int

	table4Cap     int   // per-op cap so the exhaustive optimum stays enumerable
	table4Budgets []int // evaluation budgets compared in Table 4
	uniformLevels int
}

var (
	add8  = acl.Op{Kind: acl.Add, Width: 8}
	add9  = acl.Op{Kind: acl.Add, Width: 9}
	add16 = acl.Op{Kind: acl.Add, Width: 16}
	sub10 = acl.Op{Kind: acl.Sub, Width: 10}
	sub16 = acl.Op{Kind: acl.Sub, Width: 16}
	mul8  = acl.Op{Kind: acl.Mul, Width: 8}
)

func (s Setup) params() params {
	switch s.Scale {
	case ScalePaper:
		return params{
			libCounts: map[acl.Op]int{ // Table 2 magnitudes
				add8: 6979, add9: 332, add16: 884, sub10: 365, sub16: 460, mul8: 29911,
			},
			numImages: 24, imgW: 384, imgH: 256, gfImages: 4, kernels: 50,
			trainSobel: 1500, testSobel: 1500, trainGF: 4000, testGF: 1000,
			evalsSobel: 100000, evalsGF: 1000000,
			table4Cap: 35, table4Budgets: []int{1000, 10000, 100000},
			uniformLevels: 40,
		}
	case ScaleSmall:
		return params{
			libCounts: map[acl.Op]int{
				add8: 250, add9: 140, add16: 160, sub10: 120, sub16: 120, mul8: 400,
			},
			numImages: 4, imgW: 96, imgH: 64, gfImages: 2, kernels: 8,
			trainSobel: 400, testSobel: 400, trainGF: 400, testGF: 200,
			evalsSobel: 30000, evalsGF: 100000,
			table4Cap: 10, table4Budgets: []int{1000, 10000},
			uniformLevels: 25,
		}
	default: // ScaleTiny
		return params{
			libCounts: map[acl.Op]int{
				add8: 30, add9: 30, add16: 30, sub10: 25, sub16: 25, mul8: 45,
			},
			numImages: 2, imgW: 32, imgH: 24, gfImages: 1, kernels: 2,
			trainSobel: 60, testSobel: 40, trainGF: 40, testGF: 25,
			evalsSobel: 3000, evalsGF: 2000,
			table4Cap: 5, table4Budgets: []int{100, 1000},
			uniformLevels: 10,
		}
	}
}

// cache shares expensive products (library, pipelines) between drivers in
// one process — Table 5 and Figure 5 reuse the same methodology runs.
type cacheKey struct {
	scale  Scale
	seed   int64
	engine string // search-engine choice changes pipeline products
	what   string
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]any{}
)

func cached[T any](s Setup, what string, build func() (T, error)) (T, error) {
	key := cacheKey{s.Scale, s.Seed, s.SearchEngine, what}
	cacheMu.Lock()
	if v, ok := cache[key]; ok {
		cacheMu.Unlock()
		return v.(T), nil
	}
	cacheMu.Unlock()
	// Build outside the lock: builders call cached recursively (a pipeline
	// needs the library).  Concurrent duplicate builds are acceptable — the
	// drivers run sequentially in practice.
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	cacheMu.Lock()
	cache[key] = v
	cacheMu.Unlock()
	return v, nil
}

// Library builds (or returns the cached) approximate-component library for
// this setup — all six Table 2 operation instances.
func (s Setup) Library() (*acl.Library, error) {
	return cached(s, "library", func() (*acl.Library, error) {
		p := s.params()
		specs := make([]acl.BuildSpec, 0, len(p.libCounts))
		for _, op := range []acl.Op{add8, add9, add16, sub10, sub16, mul8} {
			specs = append(specs, acl.BuildSpec{Op: op, Count: p.libCounts[op]})
		}
		return acl.Build(specs, s.Seed, acl.Options{Seed: s.Seed})
	})
}

// Images returns the benchmark image set for this setup.
func (s Setup) Images() []*imagedata.Image {
	p := s.params()
	return imagedata.BenchmarkSet(p.numImages, p.imgW, p.imgH, s.Seed+1000)
}

// App instantiates one of the three case studies by name.
func (s Setup) App(name string) (*accel.ImageApp, error) {
	app, err := apps.New(name, s.params().kernels)
	if err != nil {
		return nil, fmt.Errorf("expt: %w", err)
	}
	return app, nil
}

// pipelineConfig returns the core.Config for one app under this setup.
func (s Setup) pipelineConfig(name string) core.Config {
	p := s.params()
	cfg := core.Config{Engine: ml.Engines()[0], Stagnation: 50, Seed: s.Seed, SearchEngine: s.SearchEngine}
	if name == "sobel" {
		cfg.TrainConfigs, cfg.TestConfigs, cfg.SearchEvals = p.trainSobel, p.testSobel, p.evalsSobel
	} else {
		cfg.TrainConfigs, cfg.TestConfigs, cfg.SearchEvals = p.trainGF, p.testGF, p.evalsGF
	}
	return cfg
}

// Pipeline runs (or returns the cached) full methodology for one app.
func (s Setup) Pipeline(name string) (*core.Pipeline, error) {
	return cached(s, "pipeline/"+name, func() (*core.Pipeline, error) {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		lib, err := s.Library()
		if err != nil {
			return nil, err
		}
		images := s.Images()
		if name == "genericgf" {
			p := s.params()
			if p.gfImages < len(images) {
				images = images[:p.gfImages]
			}
		}
		pipe, err := core.NewPipeline(app, lib, images, s.pipelineConfig(name))
		if err != nil {
			return nil, err
		}
		if err := pipe.RunContext(context.Background()); err != nil {
			return nil, err
		}
		return pipe, nil
	})
}

// writeCSV emits rows to OutDir/name when OutDir is set.
func (s Setup) writeCSV(name string, header []string, rows [][]string) error {
	if s.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := csv.NewWriter(f).WriteAll(append([][]string{header}, rows...)); err != nil {
		return err
	}
	return f.Close()
}

func ftoa(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
