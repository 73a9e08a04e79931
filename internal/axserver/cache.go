package axserver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoax/internal/store"
)

// Cache is a content-addressed artifact store: values are keyed by a
// canonical hash of the inputs that produced them (see acl.CanonicalKey),
// so identical requests hit instead of recomputing.  Entries live in
// memory and, when a directory is configured, on disk — a restarted server
// warms from disk on first access.  The memory tier can be bounded by a
// byte budget: least-recently-used entries are evicted once the budget is
// exceeded, and an evicted artifact is re-promoted from disk on its next
// use instead of being recomputed.  The disk tier is a store.Dir with its
// own LRU byte budget and idle TTL; left unbounded it keeps every artifact
// and keeps self-healing.  Concurrent identical computations are
// coalesced (GetOrCompute), so N workers racing on the same key run the
// build once.  Safe for concurrent use.
type Cache struct {
	disk *store.Dir // nil = memory-only

	mu  sync.Mutex
	mem store.LRU[string, []byte] // cost = len(data), Budget = MemBytes

	flights store.Flight[string, []byte]

	memHits   atomic.Int64
	diskHits  atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// CacheConfig configures NewCache.  Each bound ≤ 0 means unbounded.
type CacheConfig struct {
	// Dir persists artifacts (created if missing); empty keeps the cache
	// in memory only.
	Dir string
	// MemBytes is the memory tier's LRU byte budget.  With a Dir, an
	// entry alone larger than it is kept on disk only.
	MemBytes int64
	// DiskBytes and DiskTTL are the disk tier's store.Dir budget and
	// idle expiry — the TTL is the knob fleets use to stop a worker's
	// artifact store growing without bound under a churning key
	// population.
	DiskBytes int64
	DiskTTL   time.Duration
}

// NewCache returns a cache configured by cfg.
func NewCache(cfg CacheConfig) (*Cache, error) {
	c := &Cache{}
	c.mem.Budget = cfg.MemBytes
	c.mem.OnEvict = func(string, []byte) { c.evictions.Add(1) }
	if cfg.Dir != "" {
		d, err := store.OpenDir(store.DirConfig{Path: cfg.Dir, Suffix: ".json", MaxBytes: cfg.DiskBytes, TTL: cfg.DiskTTL})
		if err != nil {
			return nil, fmt.Errorf("axserver: cache dir: %w", err)
		}
		c.disk = d
	}
	return c, nil
}

// diskName maps a namespaced key ("library/<hash>") to its cache file
// name.  The encoding must be injective so distinct keys can never share
// a file: "-" is escaped to "-_" before "/" is folded to "--" (a bare
// "/"→"-" replacement would map "library/x" and "library-x" to the same
// file).
//
// Files written under the old ambiguous encoding are deliberately not
// migrated: a collided file may hold either key's artifact, and adopting
// it under the new name could resurrect the wrong content.  Old entries
// simply miss (and may be deleted by the operator); the rebuild stores
// them under the unambiguous name.
func diskName(key string) string {
	enc := strings.ReplaceAll(key, "-", "-_")
	enc = strings.ReplaceAll(enc, "/", "--")
	return enc + ".json"
}

// store inserts (or refreshes) key in the memory tier, which evicts
// least-recently-used entries past the byte budget but never the newest
// one, so every stored artifact remains cached somewhere.  An entry alone
// larger than the whole budget is handled by tier: with a disk tier it is
// not admitted at all (admitting would flush every resident entry only to
// be re-read from disk anyway, and skipping displaces nothing, so it
// counts no eviction); in a memory-only cache it is admitted and the
// colder entries are evicted, because memory is the only place the
// artifact can live and recomputing it on every request would be far
// worse than a flushed hot set.  Caller must hold c.mu.
func (c *Cache) store(key string, data []byte) {
	if c.mem.Budget > 0 && int64(len(data)) > c.mem.Budget && c.disk != nil {
		c.mem.Remove(key) // drop any stale resident version
		return
	}
	c.mem.Put(key, data, int64(len(data)))
}

// cached returns the cached bytes for key, promoting the entry to
// most-recently-used and counting the hit in the tier that served it.  A
// memory miss falls through to disk and promotes the entry into the
// memory tier (which may evict colder entries under a byte budget).
func (c *Cache) cached(key string) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.mem.Get(key)
	c.mu.Unlock()
	if ok {
		c.memHits.Add(1)
		return b, true
	}
	if c.disk == nil {
		return nil, false
	}
	name := diskName(key)
	d, err := c.disk.Read(name)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.store(key, d)
	c.mu.Unlock()
	c.disk.Touch(name, int64(len(d)))
	c.diskHits.Add(1)
	return d, true
}

// Get returns the cached bytes for key.  Hit/miss counters reflect the
// combined memory+disk lookup; MemHits/DiskHits split hits by tier.
func (c *Cache) Get(key string) ([]byte, bool) {
	if b, ok := c.cached(key); ok {
		return b, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores the bytes under key in memory (subject to the byte budget)
// and, when configured, on disk via an atomic rename so readers never
// observe a partial artifact.
func (c *Cache) Put(key string, data []byte) error {
	c.mu.Lock()
	c.store(key, data)
	c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	if err := c.disk.Write(diskName(key), data); err != nil {
		return fmt.Errorf("axserver: cache write: %w", err)
	}
	return nil
}

// GetOrCompute returns the bytes for key, computing and storing them on a
// miss.  Concurrent callers for the same key are coalesced through a
// store.Flight: one (the leader) runs compute, the rest wait and share its
// result.  shared reports whether the caller was served without running
// compute itself — from the cache or from a coalesced in-flight
// computation.
//
// Failure is not shared: a waiter whose leader fails retries and, if the
// key is still absent and idle, becomes the leader and runs compute under
// its own ctx.  This keeps one job's cancellation from failing every job
// coalesced behind it.  ctx only bounds the wait — the leader's compute
// runs under whatever context compute itself captured.  Each call counts
// exactly once in the stats: a hit, a coalesced wait, or (on becoming the
// leader) a miss — so the miss rate reflects actual computations, not the
// number of callers that arrived during one.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (b []byte, shared bool, err error) {
	if b, ok := c.cached(key); ok {
		return b, true, nil
	}
	hit := false
	b, shared, err = c.flights.Do(ctx, key, func() ([]byte, error) {
		// A leader that finished between the lookup above and this
		// flight has stored the artifact already.
		if b, ok := c.cached(key); ok {
			hit = true
			return b, nil
		}
		c.misses.Add(1)
		b, err := compute()
		if err == nil {
			// Persistence is best-effort: the artifact lands in the
			// memory tier unconditionally, so a full disk must not turn a
			// finished computation into a failure.
			_ = c.Put(key, b)
		}
		return b, err
	})
	if shared {
		c.coalesced.Add(1)
	}
	return b, shared || hit, err
}

// Delete removes an entry from memory and disk — used to self-heal when a
// stored artifact turns out to be corrupt, so the next request recomputes
// instead of failing forever on the poisoned key.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	c.mem.Remove(key)
	c.mu.Unlock()
	if c.disk != nil {
		c.disk.Remove(diskName(key))
	}
}

// Stats returns the hit/miss/coalesced/eviction counters and the current
// memory-tier footprint.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n, bytes := c.mem.Len(), c.mem.Cost()
	c.mu.Unlock()
	var ds store.DirStats
	if c.disk != nil {
		ds = c.disk.Stats()
	}
	mem, disk := c.memHits.Load(), c.diskHits.Load()
	return CacheStats{
		Hits:          mem + disk,
		MemHits:       mem,
		DiskHits:      disk,
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       n,
		MemBytes:      bytes,
		DiskEvictions: ds.Evictions,
		DiskExpired:   ds.Expired,
		DiskEntries:   ds.Entries,
		DiskBytes:     ds.Bytes,
	}
}
