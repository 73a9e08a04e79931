package dse

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"

	"autoax/internal/pareto"
)

// Engine is the pluggable Step-3 search seam: a named, seeded strategy
// that explores m.Space under m's estimators and returns the pseudo
// Pareto archive.  Engines are deterministic — a run is a pure function
// of (models, engine name, SearchOptions.Seed, budget), with every random
// draw taken from seed-derived streams — so distributed workers can ship
// (name, seed) over the wire and regenerate identical candidate streams,
// and servers can fold (name, seed) into content-addressed cache keys.
//
// SearchOptions fields are zero-means-default (see SearchOptions);
// negative values surface as *OptionError from Run.
type Engine interface {
	// Name returns the engine's name in the engine table.
	Name() string
	// Run explores m.Space and returns the archive of non-dominated
	// (point, configuration) pairs under the model estimators.  On
	// cancellation it returns the partial archive with ctx.Err().
	Run(ctx context.Context, m *Models, opt SearchOptions) (*pareto.Archive[[]int], error)
}

// DefaultEngineName is the engine used when no name is given: the paper's
// Algorithm 1 restart hill climb.
const DefaultEngineName = "hillclimb"

// engines is the fixed engine table, sorted by name.
var engines = []Engine{hillclimbEngine{}, nsga2Engine{}, randomEngine{}}

// SearchEngines returns the engine names, sorted.
func SearchEngines() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}

// SearchEngineByName resolves an engine name to its engine; the empty
// string resolves to DefaultEngineName.
func SearchEngineByName(name string) (Engine, error) {
	if name == "" {
		name = DefaultEngineName
	}
	for _, e := range engines {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("dse: unknown search engine %q (have %v)", name, SearchEngines())
}

// RunEngine resolves name (empty means DefaultEngineName) and runs it.
func RunEngine(ctx context.Context, name string, m *Models, opt SearchOptions) (*pareto.Archive[[]int], error) {
	e, err := SearchEngineByName(name)
	if err != nil {
		return &pareto.Archive[[]int]{}, err
	}
	return e.Run(ctx, m, opt)
}

// DeriveSeed maps (engine, stream label, seed) to an independent rng seed:
// an FNV-1a hash of the labels mixed with the seed through the splitmix64
// finalizer.  This is the anyes seed-wire idiom — engines ship (name,
// seed) over the wire and every consumer regenerates bit-identical
// streams — and it keeps an engine's distinct random streams (e.g. nsga2
// init vs evolve) decorrelated under adjacent user seeds.
//
// DeriveSeed is part of the distributed-search wire protocol: the fleet
// coordinator derives per-shard seeds from it, so its exact outputs are
// pinned by golden-vector tests and MUST NOT change across refactors.
func DeriveSeed(engine, stream string, seed int64) int64 {
	h := fnv.New64a()
	io.WriteString(h, engine)
	h.Write([]byte{0})
	io.WriteString(h, stream)
	z := h.Sum64() ^ uint64(seed)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// hillclimbEngine is Algorithm 1 behind the Engine seam (Models.hillClimb).
type hillclimbEngine struct{}

func (hillclimbEngine) Name() string { return "hillclimb" }

func (hillclimbEngine) Run(ctx context.Context, m *Models, opt SearchOptions) (*pareto.Archive[[]int], error) {
	return m.hillClimb(ctx, opt)
}

// randomEngine is the paper's RS baseline behind the Engine seam: uniform
// random configurations estimated one at a time and filtered through the
// archive, drawn from rand seeded directly with opt.Seed.
type randomEngine struct{}

func (randomEngine) Name() string { return "random" }

func (randomEngine) Run(ctx context.Context, m *Models, opt SearchOptions) (*pareto.Archive[[]int], error) {
	return randomSearch(ctx, m.Space, m.Estimator(), opt)
}
