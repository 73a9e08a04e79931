// Package store holds the caching and persistence primitives shared by
// the service's memos and disk tiers: LRU, the one cost-budgeted
// last-use eviction policy; Dir, a directory of entry files under an LRU
// byte budget and an idle TTL, written through WriteFileAtomic;
// AppendFrame and ReadFrame, the checksummed record codec; and Flight,
// the singleflight every memoized build goes through.
package store

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DirConfig configures OpenDir.
type DirConfig struct {
	Path     string        // the directory, created if missing
	Suffix   string        // names entry files; other files are ignored
	MaxBytes int64         // LRU byte budget; ≤ 0 means unbounded
	TTL      time.Duration // idle expiry; ≤ 0 disables it
	// OnDrop, when set, is told after each call that deleted entries on
	// the tier's own account how many went to the budget and how many
	// expired.  It runs outside the tier's lock.
	OnDrop func(evicted, expired int64)
}

// DirStats reports a Dir's footprint and what it has deleted.
type DirStats struct {
	Entries            int
	Bytes              int64
	Evictions, Expired int64
}

// Dir is a directory of entry files, each named by its caller, with an
// in-memory inventory ordered by last use.  Past the byte budget the
// least-recently-used files are deleted, never the newest one, so every
// stored entry stays cached somewhere.  Files idle past the TTL are
// deleted whatever the budget says, so expiry may empty the tier; it
// runs on every touch, at open, and when stats are read.  Last use is
// tracked in memory and approximated by the file's modification time
// across restarts (reads do not rewrite mtimes), so a reopened tier ages
// read-only entries back to their write time.
//
// The budget and TTL hold per Dir: open a directory once per process and
// share the handle.  All methods are safe for concurrent use.
type Dir struct {
	cfg DirConfig

	mu sync.Mutex
	// inv maps each file name to its last use (UnixNano) at the cost of
	// its size; evicting an entry deletes its file.
	inv   LRU[string, int64]
	stats DirStats // Evictions and Expired; Entries and Bytes come from inv
}

// OpenDir creates cfg.Path if missing and inventories its entry files
// oldest-modified first (ties by name), so a reopened tier evicts cold
// entries before recent ones; then it trims to the budget and sweeps
// expired entries.
func OpenDir(cfg DirConfig) (*Dir, error) {
	if err := os.MkdirAll(cfg.Path, 0o755); err != nil {
		return nil, err
	}
	des, err := os.ReadDir(cfg.Path)
	if err != nil {
		return nil, err
	}
	type file struct {
		name      string
		size, mod int64
	}
	var files []file
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), cfg.Suffix) {
			continue // temp files and anything not an entry
		}
		if info, err := de.Info(); err == nil { // else raced a delete
			files = append(files, file{de.Name(), info.Size(), info.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	d := &Dir{cfg: cfg}
	d.inv.Budget = cfg.MaxBytes
	d.inv.OnEvict = func(name string, _ int64) {
		d.removeFile(name)
		d.stats.Evictions++
	}
	for _, f := range files {
		d.Record(f.name, f.size, time.Unix(0, f.mod))
	}
	d.Stats() // sweeps
	return d, nil
}

// Path returns the directory.
func (d *Dir) Path() string { return d.cfg.Path }

// Has reports whether entry name is in the inventory: written or touched
// through this handle, or found when it was opened.  It is not a use.
func (d *Dir) Has(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inv.Has(name)
}

// Read returns entry name's bytes.  It is not a use: callers Touch the
// entry once it has passed their validation.
func (d *Dir) Read(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.cfg.Path, name))
}

// Write stores data as entry name with WriteFileAtomic, then touches it.
func (d *Dir) Write(name string, data []byte) error {
	if err := WriteFileAtomic(filepath.Join(d.cfg.Path, name), data, false); err != nil {
		return err
	}
	d.Touch(name, int64(len(data)))
	return nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory and a rename, so a crash mid-write leaves at worst an
// ignored ".tmp-*" file and readers never see a partial file.  With
// fsync the temp file is synced to disk before the rename.
func WriteFileAtomic(path string, data []byte, fsync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && fsync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Touch records a use of entry name (size bytes) now, then sweeps
// expired entries.
func (d *Dir) Touch(name string, size int64) {
	now := time.Now()
	d.Record(name, size, now)
	d.mu.Lock()
	defer d.unlock(d.stats)
	d.sweepLocked(now)
}

// Record stamps entry name (size bytes) as the most recently used one,
// inserting it if new, and evicts past the byte budget — never name
// itself.  Unlike Touch it takes the use time and does not sweep.
func (d *Dir) Record(name string, size int64, lastUse time.Time) {
	d.mu.Lock()
	defer d.unlock(d.stats)
	d.inv.Put(name, lastUse.UnixNano(), size)
}

// sweepLocked deletes entries idle longer than the TTL, walking from the
// LRU tail: touch order and last-use order coincide, so the walk stops
// at the first fresh entry.
func (d *Dir) sweepLocked(now time.Time) {
	if d.cfg.TTL <= 0 {
		return
	}
	cutoff := now.Add(-d.cfg.TTL).UnixNano()
	for name, lastUse, ok := d.inv.Oldest(); ok && lastUse <= cutoff; name, lastUse, ok = d.inv.Oldest() {
		d.inv.Remove(name)
		d.removeFile(name)
		d.stats.Expired++
	}
}

// removeFile deletes entry name's file.  Drops are rare and the files
// small, so callers run it under d.mu.
func (d *Dir) removeFile(name string) { os.Remove(filepath.Join(d.cfg.Path, name)) }

// Remove deletes entry name and its accounting — the self-heal path for
// an entry that failed validation.  It is neither an eviction nor an
// expiry.
func (d *Dir) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inv.Remove(name)
	d.removeFile(name)
}

// Stats sweeps expired entries and returns the footprint and counters.
func (d *Dir) Stats() DirStats {
	d.mu.Lock()
	defer d.unlock(d.stats)
	d.sweepLocked(time.Now())
	s := d.stats
	s.Entries, s.Bytes = d.inv.Len(), d.inv.Cost()
	return s
}

// unlock releases d.mu, then reports to OnDrop the drops made since the
// stats were before.
func (d *Dir) unlock(before DirStats) {
	evicted, expired := d.stats.Evictions-before.Evictions, d.stats.Expired-before.Expired
	d.mu.Unlock()
	if d.cfg.OnDrop != nil && evicted+expired > 0 {
		d.cfg.OnDrop(evicted, expired)
	}
}
