package accel

import (
	"context"
	"strings"
	"sync"

	"autoax/internal/acl"
	"autoax/internal/netlist"
	"autoax/internal/obs"
	"autoax/internal/store"
)

// DefaultProgramCacheEntries is the default size cap of an evaluator's
// compiled-program cache.  A cached entry is a simplified netlist plus its
// compiled instruction stream — a few hundred KB for the paper-scale
// accelerators — so the default bounds the cache to tens of MB while
// still covering the working set of a Pareto-front re-evaluation.
const DefaultProgramCacheEntries = 256

// compiledConfig is one cached synthesis artifact: the simplified netlist
// of a configuration (analyzed for cost and switching activity) and its
// compiled program (run by the simulation sweeps).  Both are immutable
// after construction and safe for concurrent use (the program takes
// caller-owned scratch), which is what lets every Evaluator clone share
// one cache.
type compiledConfig struct {
	simp *netlist.Netlist
	prog *netlist.Program
}

// programCache memoizes Flatten+Simplify+Compile per configuration,
// keyed by the tuple of structural circuit hashes (acl.StructuralKey).
// It is shared by every clone of an Evaluator and keeps completed builds
// in a store.LRU bounded by entry count; concurrent requests for the same
// key are coalesced through a store.Flight so N clones racing on one
// configuration synthesize it once.  Safe for concurrent use.
type programCache struct {
	mu     sync.Mutex
	progs  store.LRU[string, compiledConfig] // cost 1 per entry
	flight store.Flight[string, compiledConfig]

	// disk is the optional persistent tier: leaders probe it before
	// building and queue successful builds for its background writer.
	// Nil without a configured cache directory.
	disk *ProgramDir

	// circuitKeys memoizes acl.StructuralKey per circuit pointer: a DSE
	// batch draws every configuration from one library, so each circuit
	// is hashed once and then looked up by identity.  The memo is bounded
	// by circuitKeyCap — circuits are library objects, but a server that
	// cycles libraries would otherwise grow it without limit — and resets
	// wholesale at the cap (re-hashing on demand is cheap relative to a
	// leak).
	circuitKeys map[*acl.Circuit]string

	st ProgramCacheStats // every field but Entries
}

// circuitKeyCap bounds the structural-key memo; see programCache.
const circuitKeyCap = 4096

// ProgramCacheStats reports the effectiveness of an evaluator's
// compiled-program cache.  Every get counts exactly once: a hit (served
// from a completed entry), a coalesced wait (shared a concurrent build's
// successful result), a disk hit (leader decoded a persisted artifact),
// or a miss (ran the build as leader) — so the miss count equals the
// number of builds actually executed.  Disk writes are best-effort and
// happen off the request path, so a warm restart over a cache directory
// reports Misses == 0 when the earlier run's handle was flushed
// (ProgramDir.Flush) before the restart and dropped none of its writes.
type ProgramCacheStats struct {
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	Entries   int

	// Disk tier (all zero without a configured directory).
	DiskHits   int64 // leader gets served by decoding a persisted entry
	DiskMisses int64 // leader probes found no (valid) entry
	SelfHeals  int64 // corrupt/foreign entries deleted on probe
	// KeyEvictions counts structural-key memo entries dropped at the
	// circuitKeyCap bound.
	KeyEvictions int64
}

func newProgramCache(capacity int) *programCache {
	pc := &programCache{circuitKeys: make(map[*acl.Circuit]string)}
	pc.progs.Budget = int64(capacity)
	pc.progs.OnEvict = func(string, compiledConfig) {
		pc.st.Evictions++
		progEvictions.Inc()
	}
	return pc
}

// configKey returns the cache key of cfg: the concatenated structural
// hashes of its circuits in operation order.  The evaluator's graph is
// fixed, so the circuit tuple fully determines the flattened netlist.
// Hashing an unseen circuit (JSON + SHA-256 over its whole netlist) runs
// outside the cache mutex so a cold-start batch of clones doesn't
// serialize on it — a racing double-compute is idempotent and the second
// writer just overwrites the identical string.
func (pc *programCache) configKey(cfg Configuration) string {
	var b strings.Builder
	b.Grow(len(cfg) * 65)
	for _, c := range cfg {
		pc.mu.Lock()
		k, ok := pc.circuitKeys[c]
		pc.mu.Unlock()
		if !ok {
			k = acl.StructuralKey(c)
			pc.mu.Lock()
			if len(pc.circuitKeys) >= circuitKeyCap {
				dropped := int64(len(pc.circuitKeys))
				pc.st.KeyEvictions += dropped
				pc.circuitKeys = make(map[*acl.Circuit]string)
				progKeyEvictions.Add(dropped)
			}
			pc.circuitKeys[c] = k
			pc.mu.Unlock()
		}
		b.WriteString(k)
		b.WriteByte('/')
	}
	return b.String()
}

// get returns the compiled artifact for key, building it via build on a
// miss.  Concurrent callers for the same key share one build through the
// flight; build failures are neither cached nor shared, and a build
// panic becomes the leader's error.
func (pc *programCache) get(key string, build func() (compiledConfig, error)) (compiledConfig, error) {
	if art, ok := pc.hit(key); ok {
		return art, nil
	}
	art, shared, err := pc.flight.Do(context.Background(), key, func() (compiledConfig, error) {
		// A leader that finished between the probe above and this
		// flight has filled the entry already.
		if art, ok := pc.hit(key); ok {
			return art, nil
		}
		art, err := pc.fill(key, build)
		if err == nil {
			pc.mu.Lock()
			pc.progs.Put(key, art, 1)
			pc.mu.Unlock()
		}
		return art, err
	})
	if shared {
		pc.count(&pc.st.Coalesced, progCoalesced)
	}
	return art, err
}

// hit serves key from a completed entry, counting the hit.
func (pc *programCache) hit(key string) (compiledConfig, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	art, ok := pc.progs.Get(key)
	if ok {
		pc.st.Hits++
		progHits.Inc()
	}
	return art, ok
}

// fill is the leader's path: serve from the persistent tier when
// possible; only a disk miss runs the build (and queues the result for
// the disk), so the miss count stays exactly the number of builds
// executed.
func (pc *programCache) fill(key string, build func() (compiledConfig, error)) (compiledConfig, error) {
	if pc.disk != nil {
		art, ok, healed := pc.disk.load(key)
		if healed {
			pc.count(&pc.st.SelfHeals, progDiskSelfHeals)
		}
		if ok {
			pc.count(&pc.st.DiskHits, progDiskHits)
			return art, nil
		}
		pc.count(&pc.st.DiskMisses, progDiskMisses)
	}
	pc.count(&pc.st.Misses, progMisses)
	span := obs.Default().StartSpanIn(progCompile)
	art, err := build()
	span.Finish()
	if err == nil && pc.disk != nil {
		pc.disk.store(key, art)
	}
	return art, err
}

// count adds one to a stats field and to its process-wide mirror.
func (pc *programCache) count(field *int64, mirror *obs.Counter) {
	pc.mu.Lock()
	*field++
	pc.mu.Unlock()
	mirror.Inc()
}

// stats snapshots the cache counters.
func (pc *programCache) stats() ProgramCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := pc.st
	s.Entries = pc.progs.Len()
	return s
}
