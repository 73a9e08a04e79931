package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// entries lists the entry files left in dir, sorted.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".e" && !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	return names
}

func mustOpen(t *testing.T, cfg DirConfig) *Dir {
	t.Helper()
	d, err := OpenDir(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustWrite(t *testing.T, d *Dir, name string, size int) {
	t.Helper()
	if err := d.Write(name, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
}

// TestDirBudgetOrder: past the budget the least-recently-used entry goes
// first, a Touch refreshes recency, and OnDrop hears each eviction.
func TestDirBudgetOrder(t *testing.T) {
	var drops [][2]int64
	d := mustOpen(t, DirConfig{Path: t.TempDir(), Suffix: ".e", MaxBytes: 100,
		OnDrop: func(evicted, expired int64) { drops = append(drops, [2]int64{evicted, expired}) }})
	mustWrite(t, d, "a.e", 40)
	mustWrite(t, d, "b.e", 40)
	d.Touch("a.e", 40) // b is now the coldest
	mustWrite(t, d, "c.e", 40)
	if got := entries(t, d.Path()); !slices.Equal(got, []string{"a.e", "c.e"}) {
		t.Fatalf("entries %v, want b evicted", got)
	}
	if st := d.Stats(); st != (DirStats{Entries: 2, Bytes: 80, Evictions: 1}) {
		t.Fatalf("stats %+v", st)
	}
	if !slices.Equal(drops, [][2]int64{{1, 0}}) {
		t.Fatalf("OnDrop calls %v, want one eviction", drops)
	}
}

// TestDirNeverEvictsNewest: an entry alone over the budget stays, until a
// newer entry displaces it.
func TestDirNeverEvictsNewest(t *testing.T) {
	d := mustOpen(t, DirConfig{Path: t.TempDir(), Suffix: ".e", MaxBytes: 10})
	mustWrite(t, d, "big.e", 64)
	if st := d.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("sole oversized entry dropped: %+v", st)
	}
	mustWrite(t, d, "big2.e", 64)
	if got := entries(t, d.Path()); !slices.Equal(got, []string{"big2.e"}) {
		t.Fatalf("entries %v, want only the newest", got)
	}
	// Rewriting an entry in place re-accounts its size, not a second copy.
	mustWrite(t, d, "big2.e", 8)
	if st := d.Stats(); st.Entries != 1 || st.Bytes != 8 {
		t.Fatalf("rewrite accounting: %+v", st)
	}
}

// TestDirRestartInventory: a reopened directory is inventoried oldest
// mtime first, equal mtimes by name, so the trim removes the coldest
// files; temp files, strays and subdirectories are ignored and kept.
func TestDirRestartInventory(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	for name, age := range map[string]time.Duration{"b.e": 2 * time.Minute, "a.e": time.Minute, "c.e": time.Minute} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, make([]byte, 40), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(-age)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	for _, stray := range []string{".tmp-123", "stray.txt"} {
		if err := os.WriteFile(filepath.Join(dir, stray), make([]byte, 1000), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.e"), 0o755); err != nil {
		t.Fatal(err)
	}

	d := mustOpen(t, DirConfig{Path: dir, Suffix: ".e"})
	if st := d.Stats(); st != (DirStats{Entries: 3, Bytes: 120}) {
		t.Fatalf("unbounded inventory %+v, want the 3 entries only", st)
	}
	// Budget 40: b (oldest) goes, then a (ties with c, sorts first).
	d = mustOpen(t, DirConfig{Path: dir, Suffix: ".e", MaxBytes: 40})
	if got := entries(t, dir); !slices.Equal(got, []string{"c.e"}) {
		t.Fatalf("entries %v, want only c", got)
	}
	if st := d.Stats(); st != (DirStats{Entries: 1, Bytes: 40, Evictions: 2}) {
		t.Fatalf("stats %+v", st)
	}
	for _, kept := range []string{".tmp-123", "stray.txt", "sub.e"} {
		if _, err := os.Stat(filepath.Join(dir, kept)); err != nil {
			t.Fatalf("%s touched: %v", kept, err)
		}
	}
}

// TestDirTTLSweep: open expires entries idle past the TTL and may empty
// the tier; a Touch renews a lease while an idle entry expires.
func TestDirTTLSweep(t *testing.T) {
	dir := t.TempDir()
	var drops [][2]int64
	d := mustOpen(t, DirConfig{Path: dir, Suffix: ".e", TTL: time.Hour,
		OnDrop: func(evicted, expired int64) { drops = append(drops, [2]int64{evicted, expired}) }})
	mustWrite(t, d, "fresh.e", 10)
	mustWrite(t, d, "idle.e", 10)
	old := time.Now().Add(-2 * time.Hour)
	d.Record("fresh.e", 10, old)
	d.Record("idle.e", 10, old)
	d.Touch("fresh.e", 10)
	if got := entries(t, dir); !slices.Equal(got, []string{"fresh.e"}) {
		t.Fatalf("entries %v, want idle expired", got)
	}
	if st := d.Stats(); st != (DirStats{Entries: 1, Bytes: 10, Expired: 1}) {
		t.Fatalf("stats %+v", st)
	}
	if !slices.Equal(drops, [][2]int64{{0, 1}}) {
		t.Fatalf("OnDrop calls %v, want one expiry", drops)
	}

	if err := os.Chtimes(filepath.Join(dir, "fresh.e"), old, old); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, DirConfig{Path: dir, Suffix: ".e", TTL: time.Hour})
	if st := d.Stats(); st != (DirStats{Expired: 1}) {
		t.Fatalf("reopen stats %+v, want the tier emptied", st)
	}
	if got := entries(t, dir); len(got) != 0 {
		t.Fatalf("entries %v survived the TTL", got)
	}
}

// TestDirRemove: Remove deletes the file and its accounting (Has turns
// false) without counting an eviction or expiry; removing an unknown name
// is harmless.
func TestDirRemove(t *testing.T) {
	d := mustOpen(t, DirConfig{Path: t.TempDir(), Suffix: ".e", MaxBytes: 100})
	mustWrite(t, d, "a.e", 40)
	mustWrite(t, d, "b.e", 40)
	if !d.Has("a.e") {
		t.Fatal("written entry not in the inventory")
	}
	d.Remove("a.e")
	d.Remove("missing.e")
	if d.Has("a.e") || d.Has("missing.e") {
		t.Fatal("removed entry still in the inventory")
	}
	if st := d.Stats(); st != (DirStats{Entries: 1, Bytes: 40}) {
		t.Fatalf("stats %+v", st)
	}
	if got := entries(t, d.Path()); !slices.Equal(got, []string{"b.e"}) {
		t.Fatalf("entries %v", got)
	}
	if _, err := d.Read("a.e"); err == nil {
		t.Fatal("removed entry still readable")
	}
	// The freed bytes are usable: c fits beside b without an eviction.
	mustWrite(t, d, "c.e", 40)
	if st := d.Stats(); st.Evictions != 0 {
		t.Fatalf("stats %+v, want no eviction", st)
	}
}

// TestOpenDirRejectsFile: a path that is a regular file cannot be a Dir.
func TestOpenDirRejectsFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(DirConfig{Path: file, Suffix: ".e"}); err == nil {
		t.Fatal("OpenDir over a regular file succeeded")
	}
}
