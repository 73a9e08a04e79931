package accel

import (
	"strings"
	"sync"

	"autoax/internal/acl"
	"autoax/internal/obs"
)

// programStore is an Evaluator's optional ProgramDir plus the counters
// of how its programs were obtained, shared by every clone of the
// Evaluator.  Safe for concurrent use.
type programStore struct {
	disk *ProgramDir // nil: every configuration compiles

	mu sync.Mutex
	// circuitKeys memoizes acl.StructuralKey per circuit pointer: a DSE
	// batch draws every configuration from one library, so each circuit
	// is hashed once and then looked up by identity.  The memo is bounded
	// by circuitKeyCap — circuits are library objects, but a server that
	// cycles libraries would otherwise grow it without limit — and resets
	// wholesale at the cap (re-hashing on demand is cheap relative to a
	// leak).
	circuitKeys map[*acl.Circuit]string

	st ProgramCacheStats
}

// circuitKeyCap bounds the structural-key memo; see programStore.
const circuitKeyCap = 4096

// ProgramCacheStats reports how an evaluator obtained its compiled
// programs.  Every Evaluate and Precompile counts exactly once, as a hit
// (netlist decoded from the evaluator's ProgramDir, then compiled) or a
// miss (synthesized, then compiled).
// Directory writes are best-effort and happen off the request path, so a
// warm restart over a directory reports Misses == 0 only when the earlier
// run flushed its handle (ProgramDir.Flush) and dropped none of its writes.
type ProgramCacheStats struct {
	Hits      int64 // netlists loaded from the ProgramDir
	Misses    int64 // configurations synthesized
	SelfHeals int64 // corrupt or foreign directory entries deleted on load
	// KeyEvictions counts structural-key memo entries dropped at the
	// circuitKeyCap bound.
	KeyEvictions int64
}

// configKey returns the directory key of cfg: the concatenated structural
// hashes of its circuits in operation order.  The evaluator's graph is
// fixed, so the circuit tuple fully determines the flattened netlist.
// Hashing an unseen circuit (JSON + SHA-256 over its whole netlist) runs
// outside the mutex so a cold-start batch of clones doesn't serialize on
// it — a racing double-compute is idempotent and the second writer just
// overwrites the identical string.
func (ps *programStore) configKey(cfg Configuration) string {
	var b strings.Builder
	b.Grow(len(cfg) * 65)
	for _, c := range cfg {
		ps.mu.Lock()
		k, ok := ps.circuitKeys[c]
		ps.mu.Unlock()
		if !ok {
			k = acl.StructuralKey(c)
			ps.mu.Lock()
			if ps.circuitKeys == nil || len(ps.circuitKeys) >= circuitKeyCap {
				dropped := int64(len(ps.circuitKeys))
				ps.st.KeyEvictions += dropped
				ps.circuitKeys = make(map[*acl.Circuit]string)
				progKeyEvictions.Add(dropped)
			}
			ps.circuitKeys[c] = k
			ps.mu.Unlock()
		}
		b.WriteString(k)
		b.WriteByte('/')
	}
	return b.String()
}

// count adds one to a stats field and to its process-wide mirror.
func (ps *programStore) count(field *int64, mirror *obs.Counter) {
	ps.mu.Lock()
	*field++
	ps.mu.Unlock()
	mirror.Inc()
}
