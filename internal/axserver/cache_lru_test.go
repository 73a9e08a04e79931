package axserver

import (
	"fmt"
	"testing"
)

// TestCacheMemoryBudgetEvictsLRU pins the bounded memory tier: exceeding
// the byte budget evicts least-recently-used entries and counts them.
func TestCacheMemoryBudgetEvictsLRU(t *testing.T) {
	c, err := NewCache(CacheConfig{MemBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	if err := c.Put("a", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", payload); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	if err := c.Put("c", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be cached")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	if st.Entries != 2 || st.MemBytes != 80 {
		t.Fatalf("stats %+v, want 2 entries / 80 bytes", st)
	}
}

// TestCacheOversizedEntry pins the tiered handling of an artifact alone
// above the budget: with a disk tier it is not admitted to memory (disk
// self-heals), in a memory-only cache it is retained — evicting colder
// entries but never itself — because nowhere else can serve it.
func TestCacheOversizedEntry(t *testing.T) {
	disk, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put("big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.Entries != 0 || st.MemBytes != 0 {
		t.Fatalf("disk-tier cache retained oversized entry in memory: %+v", st)
	}
	// Never admitted means never evicted: the counter tracks real LRU
	// churn, not oversized pass-throughs.
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
	if _, ok := disk.Get("big"); !ok {
		t.Fatal("oversized entry unreachable via disk tier")
	}

	mem, err := NewCache(CacheConfig{MemBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("small", make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get("big"); !ok {
		t.Fatal("memory-only cache must retain the oversized artifact (nothing else can serve it)")
	}
	st = mem.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("memory-only oversized store: %+v, want the big entry alone after 1 eviction", st)
	}
}

// TestCacheBudgetDiskSelfHeals: with a disk tier, an evicted entry is
// re-promoted from disk instead of being lost.
func TestCacheBudgetDiskSelfHeals(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheConfig{Dir: dir, MemBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("x", []byte("0123456789012345678901234567890123456789")); err != nil {
		t.Fatal(err) // 40 bytes
	}
	if err := c.Put("y", []byte("0123456789012345678901234567890123456789")); err != nil {
		t.Fatal(err) // evicts x from memory
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 eviction", st)
	}
	b, ok := c.Get("x")
	if !ok || len(b) != 40 {
		t.Fatalf("x not re-promoted from disk (ok=%v len=%d)", ok, len(b))
	}
	// Promotion of x must in turn have evicted y from memory, but y too
	// stays reachable via disk.
	if _, ok := c.Get("y"); !ok {
		t.Fatal("y unreachable after x's promotion")
	}
}

// TestCacheUnboundedByDefault: NewCache keeps the historical unbounded
// behavior.
func TestCacheUnboundedByDefault(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 100 || st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}
