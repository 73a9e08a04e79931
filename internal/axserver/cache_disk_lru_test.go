package axserver

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// path returns the file backing key's disk-tier entry.
func (c *Cache) path(key string) string {
	return filepath.Join(c.disk.Path(), diskName(key))
}

// fileGone reports whether a cache entry's backing file has been removed.
func fileGone(t *testing.T, c *Cache, key string) bool {
	t.Helper()
	_, err := os.Stat(c.path(key))
	if err != nil && !os.IsNotExist(err) {
		t.Fatalf("stat %s: %v", key, err)
	}
	return err != nil
}

// TestCacheDiskBudgetEvictsLRU pins the bounded disk tier: exceeding the
// byte budget deletes least-recently-stored files and counts them.
func TestCacheDiskBudgetEvictsLRU(t *testing.T) {
	c, err := NewCache(CacheConfig{Dir: t.TempDir(), DiskBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !fileGone(t, c, "a") {
		t.Fatal("a's file should have been evicted as least recently used")
	}
	if fileGone(t, c, "b") || fileGone(t, c, "c") {
		t.Fatal("b and c must survive within the budget")
	}
	st := c.Stats()
	if st.DiskEvictions != 1 || st.DiskEntries != 2 || st.DiskBytes != 80 {
		t.Fatalf("stats %+v, want 1 disk eviction / 2 entries / 80 bytes", st)
	}
}

// TestCacheDiskPromoteOnHit: a disk read refreshes the entry's recency, so
// the hit entry outlives a colder one when the budget forces an eviction.
// The 1-byte memory budget keeps every artifact out of the memory tier, so
// each Get is served — and touched — by disk.
func TestCacheDiskPromoteOnHit(t *testing.T) {
	c, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBytes: 1, DiskBytes: 100})
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
	// Touch "a" on disk so "b" is the LRU victim when "c" arrives.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be served from disk")
	}
	if err := c.Put("c", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently read)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be cached")
	}
	st := c.Stats()
	if st.DiskEvictions != 1 || st.DiskEntries != 2 {
		t.Fatalf("stats %+v, want 1 disk eviction / 2 entries", st)
	}
	if st.DiskHits < 3 {
		t.Fatalf("disk hits = %d, want the gets served by the disk tier", st.DiskHits)
	}
}

// TestCacheDiskScanOnRestart: a fresh cache over a warm directory
// inventories the existing files oldest-modified first and trims to the
// budget immediately, evicting cold artifacts before recent ones.
func TestCacheDiskScanOnRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheConfig{Dir: dir}) // unbounded writer
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"old", "newer", "newest"} {
		if err := c1.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Spread the modification times far apart so the restart scan sees
		// an unambiguous age order regardless of filesystem resolution.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c1.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if st := c1.Stats(); st.DiskEntries != 3 || st.DiskBytes != 120 || st.DiskEvictions != 0 {
		t.Fatalf("unbounded tier must inventory without evicting: %+v", st)
	}

	c2, err := NewCache(CacheConfig{Dir: dir, DiskBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskEvictions != 1 || st.DiskEntries != 2 || st.DiskBytes != 80 {
		t.Fatalf("restart trim: %+v, want the oldest file evicted", st)
	}
	if _, ok := c2.Get("old"); ok {
		t.Fatal("old should have been trimmed at startup")
	}
	for _, k := range []string{"newer", "newest"} {
		if _, ok := c2.Get(k); !ok {
			t.Fatalf("%s should have survived the startup trim", k)
		}
	}
}

// TestCacheDiskNeverEvictsNewest: an artifact alone above the disk budget
// is retained — every stored artifact must remain cached somewhere.
func TestCacheDiskNeverEvictsNewest(t *testing.T) {
	c, err := NewCache(CacheConfig{Dir: t.TempDir(), DiskBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskEntries != 1 || st.DiskBytes != 64 || st.DiskEvictions != 0 {
		t.Fatalf("sole oversized entry must be retained: %+v", st)
	}
	if err := c.Put("big2", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.DiskEntries != 1 || st.DiskEvictions != 1 {
		t.Fatalf("stats %+v, want big replaced by big2", st)
	}
	if !fileGone(t, c, "big") || fileGone(t, c, "big2") {
		t.Fatal("big should have yielded to the newer big2")
	}
}

// TestCacheDiskDeleteForgets: Delete drops the disk-tier accounting along
// with the file.
func TestCacheDiskDeleteForgets(t *testing.T) {
	c, err := NewCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	c.Delete("a")
	st := c.Stats()
	if st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("stats %+v, want an empty disk tier after Delete", st)
	}
}

// TestServerRejectsNegativeDiskBudget pins the Options validation.
func TestServerRejectsNegativeDiskBudget(t *testing.T) {
	if _, err := New(Options{DiskCacheBytes: -1}); err == nil {
		t.Fatal("negative DiskCacheBytes must be rejected")
	}
}

// TestServerRejectsUnusableProgramCacheDir: a ProgramCacheDir that cannot
// be a directory fails New instead of failing every later pipeline job.
func TestServerRejectsUnusableProgramCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{ProgramCacheDir: file}); err == nil {
		s.Close()
		t.Fatal("a regular file as ProgramCacheDir must be rejected")
	}
}
