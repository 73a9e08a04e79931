// Package fleet distributes design-space exploration across workers by
// shipping seeds, not data (the anyes idiom).  The engine seam made every
// search run a pure function of (library hash, engine name, seed, budget)
// with seed-derived rng streams; fleet exploits that purity: a
// Coordinator partitions a total evaluation budget into ShardSpecs whose
// per-shard seeds come from dse.DeriveSeed, dispatches them to Workers —
// in-process for tests, remote axservers that resolve the library from
// their own content-addressed cache by canonical hash — and merges the
// returned Pareto-surviving points into one global archive in
// deterministic shard order, independent of completion order.
//
// Determinism is what makes the robustness machinery cheap: any worker
// executing a given shard produces the identical archive, so failed
// shards are reissued to healthy workers, stragglers are speculatively
// re-dispatched, and whichever attempt lands first the merged result is
// bit-identical to the no-failure run.  Tests pin exactly that property
// through the fault-injection hook.
package fleet

import (
	"fmt"
	"strconv"

	"autoax/internal/dse"
	"autoax/internal/pareto"
)

// ProtocolVersion is the version of the shard wire protocol spoken by
// POST /v1/search/shards.  It covers the ShardSpec/ShardResult shapes AND
// the dse.DeriveSeed seed-derivation discipline (pinned by golden-vector
// tests); either changing incompatibly requires a bump.
const ProtocolVersion = 1

// ShardSpec names one deterministic slice of a distributed search.  It is
// the complete wire identity of the work: any worker holding the library
// named by LibraryHash and executing (Engine, Seed, Evaluations,
// Population, Stagnation) produces the identical archive.
type ShardSpec struct {
	// LibraryHash is the canonical content hash of the reduced library
	// (acl.CanonicalKey); workers resolve it against their own cache and
	// reject shards for libraries they have never built.
	LibraryHash string `json:"libraryHash"`
	// Engine is the dse engine name; empty means the default.
	Engine string `json:"engine,omitempty"`
	// Seed is the engine seed for this shard, normally derived by
	// Partition via dse.DeriveSeed so sibling shards draw decorrelated
	// streams.
	Seed int64 `json:"seed"`
	// Evaluations is this shard's estimator budget (must be positive on
	// the wire: a shard with nothing to do is a partitioning bug).
	Evaluations int `json:"evaluations"`
	// Population and Stagnation follow dse.SearchOptions zero-means-
	// default semantics.
	Population int `json:"population,omitempty"`
	Stagnation int `json:"stagnation,omitempty"`
}

// Validate checks the spec against the wire contract: a known engine, a
// present library hash, a positive budget, and non-negative tuning
// fields.
func (s ShardSpec) Validate() error {
	if s.LibraryHash == "" {
		return fmt.Errorf("fleet: shard spec has no library hash")
	}
	if _, err := dse.SearchEngineByName(s.Engine); err != nil {
		return err
	}
	if s.Evaluations <= 0 {
		return fmt.Errorf("fleet: shard evaluations must be positive, got %d", s.Evaluations)
	}
	if s.Population < 0 {
		return fmt.Errorf("fleet: shard population must be >= 0, got %d", s.Population)
	}
	if s.Stagnation < 0 {
		return fmt.Errorf("fleet: shard stagnation must be >= 0, got %d", s.Stagnation)
	}
	return nil
}

// normalized validates the spec and resolves the empty engine name to the
// default engine, so seed derivation and cache keys never depend on the
// spelling.
func (s ShardSpec) normalized() (ShardSpec, error) {
	if err := s.Validate(); err != nil {
		return s, err
	}
	if s.Engine == "" {
		s.Engine = dse.DefaultEngineName
	}
	return s, nil
}

// ShardPoint is one archive-surviving (point, configuration) pair.  Point
// is the archive's objective vector (-QoR, hw); Config indexes the
// reduced library per operation.
type ShardPoint struct {
	Point  []float64 `json:"point"`
	Config []int     `json:"config"`
}

// ShardResult is a shard's archive in staircase order — only the Pareto
// survivors travel back, never the candidate stream.
type ShardResult struct {
	Points []ShardPoint `json:"points"`
}

// ResultFromArchive deep-copies an archive into wire form.
func ResultFromArchive(a *pareto.Archive[[]int]) *ShardResult {
	pts, cfgs := a.Points(), a.Payloads()
	out := &ShardResult{Points: make([]ShardPoint, len(pts))}
	for i := range pts {
		out.Points[i] = ShardPoint{
			Point:  append([]float64(nil), pts[i]...),
			Config: append([]int(nil), cfgs[i]...),
		}
	}
	return out
}

// Merge folds shard results into one global archive in slice order.
// Because pareto.Archive.Insert keeps the first-inserted payload on equal
// points, inserting shard i's points before shard j's (i < j) makes the
// merged archive a pure function of the result slice — the coordinator
// merges in shard-index order no matter which worker finished first, so
// the global archive is bit-identical across worker counts, completion
// orders, and retries.  Nil results (shards the caller dropped) are
// skipped.  Every point must be a (QoR, hw) pair, as pareto.Archive
// panics on any other length; Coordinator.Search fails an attempt whose
// result breaks this before it reaches Merge.
func Merge(results []*ShardResult) *pareto.Archive[[]int] {
	merged := &pareto.Archive[[]int]{}
	for _, r := range results {
		if r == nil {
			continue
		}
		for _, p := range r.Points {
			merged.Insert(pareto.Point(p.Point), p.Config)
		}
	}
	return merged
}

// Slice is one shard's share of a search: its estimator budget and the
// engine seed it runs under.
type Slice struct {
	Evaluations int
	Seed        int64
}

// Split is the partition rule behind Partition, shared with the pipeline's
// explore stage so a local multi-climb search and a fleet search over the
// same models run the same shards.  Shard i receives the
// [i·total/n, (i+1)·total/n) slice of the budget (never losing or
// double-counting an evaluation) and the seed
// dse.DeriveSeed(engine, "fleet/shard/i", seed), so sibling shards explore
// decorrelated streams while remaining individually reproducible.  engine
// must be the engine name spelled out (never empty), and
// 0 < n <= total.
func Split(engine string, seed int64, total, n int) []Slice {
	out := make([]Slice, n)
	for i := range out {
		lo := int(int64(total) * int64(i) / int64(n))
		hi := int(int64(total) * int64(i+1) / int64(n))
		out[i] = Slice{
			Evaluations: hi - lo,
			Seed:        dse.DeriveSeed(engine, "fleet/shard/"+strconv.Itoa(i), seed),
		}
	}
	return out
}

// Partition splits base's total evaluation budget into shards by Split.
// A shard count exceeding the budget is clamped so no shard is empty.
func Partition(base ShardSpec, shards int) ([]ShardSpec, error) {
	base, err := base.normalized()
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		return nil, fmt.Errorf("fleet: shard count must be positive, got %d", shards)
	}
	if shards > base.Evaluations {
		shards = base.Evaluations
	}
	split := Split(base.Engine, base.Seed, base.Evaluations, shards)
	out := make([]ShardSpec, len(split))
	for i, sl := range split {
		s := base
		s.Evaluations, s.Seed = sl.Evaluations, sl.Seed
		out[i] = s
	}
	return out, nil
}
