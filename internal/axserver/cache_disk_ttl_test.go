package axserver

import (
	"os"
	"testing"
	"time"
)

// TestCacheDiskTTLExpiryOrder pins TTL eviction and its order: a restart
// scan over a warm directory ages entries by modification time, expires
// exactly the ones past the TTL (oldest first), and a later touch keeps a
// fresh entry alive while an idle one expires.
func TestCacheDiskTTLExpiryOrder(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(CacheConfig{Dir: dir}) // unbounded, no TTL writer
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40)
	ages := map[string]time.Duration{
		"ancient": 3 * time.Hour,
		"stale":   2 * time.Hour,
		"fresh":   time.Minute,
	}
	for _, k := range []string{"ancient", "stale", "fresh"} {
		if err := c1.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(-ages[k])
		if err := os.Chtimes(c1.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Restart with a 1-hour TTL: the startup scan must expire exactly the
	// two entries idle longer than an hour, oldest first.
	c2, err := NewCache(CacheConfig{Dir: dir, DiskTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskExpired != 2 || st.DiskEntries != 1 || st.DiskBytes != 40 {
		t.Fatalf("startup sweep: %+v, want 2 expired / 1 entry / 40 bytes", st)
	}
	for _, k := range []string{"ancient", "stale"} {
		if !fileGone(t, c2, k) {
			t.Fatalf("%s should have expired at startup", k)
		}
	}
	if fileGone(t, c2, "fresh") {
		t.Fatal("fresh is inside the TTL and must survive")
	}
	if st.DiskEvictions != 0 {
		t.Fatalf("expiry must count as DiskExpired, not DiskEvictions: %+v", st)
	}

	// A touched entry gets a fresh lease; an untouched one expires even if
	// it was stored later.  Backdate both past the TTL, then touch only
	// "fresh" — the touch itself sweeps "idle" out.
	if err := c2.Put("idle", payload); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fresh", "idle"} {
		c2.disk.Record(diskName(k), 40, time.Now().Add(-2*time.Hour))
	}
	c2.disk.Touch(diskName("fresh"), 40)
	st = c2.Stats()
	if st.DiskExpired != 3 || st.DiskEntries != 1 {
		t.Fatalf("post-touch sweep: %+v, want idle expired and fresh retained", st)
	}
	if !fileGone(t, c2, "idle") || fileGone(t, c2, "fresh") {
		t.Fatal("idle should have expired; the touched fresh must survive")
	}
}

// TestCacheDiskTTLDisabled: without a TTL nothing ever expires, however
// old the entries are.
func TestCacheDiskTTLDisabled(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	mt := time.Now().Add(-24 * 365 * time.Hour)
	if err := os.Chtimes(c.path("a"), mt, mt); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskExpired != 0 || st.DiskEntries != 1 {
		t.Fatalf("TTL-less tier expired entries: %+v", st)
	}
}

// TestServerRejectsNegativeDiskTTL pins the Options validation.
func TestServerRejectsNegativeDiskTTL(t *testing.T) {
	if _, err := New(Options{DiskCacheTTL: -time.Second}); err == nil {
		t.Fatal("negative DiskCacheTTL must be rejected")
	}
}
