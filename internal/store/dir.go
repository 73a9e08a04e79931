// Package store holds the persistence primitives shared by the service's
// disk tiers: Dir, a directory of entry files under an LRU byte budget
// and an idle TTL, written through WriteFileAtomic; AppendFrame and
// ReadFrame, the checksummed record codec; and Flight, the singleflight
// every memoized build goes through.
package store

import (
	"container/list"
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

	mu      sync.Mutex
	entries map[string]*dirEntry
	lru     *list.List // of file name; front = most recently used
	stats   DirStats
}

type dirEntry struct {
	size    int64
	lastUse int64 // UnixNano
	elem    *list.Element
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
	d := &Dir{cfg: cfg, entries: make(map[string]*dirEntry), lru: list.New()}
	for _, f := range files {
		d.Record(f.name, f.size, time.Unix(0, f.mod))
	}
	d.Stats() // sweeps
	return d, nil
}

// Path returns the directory.
func (d *Dir) Path() string { return d.cfg.Path }

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
	e, ok := d.entries[name]
	if !ok {
		e = &dirEntry{elem: d.lru.PushFront(name)}
		d.entries[name] = e
		d.stats.Entries++
	}
	d.stats.Bytes += size - e.size
	e.size, e.lastUse = size, lastUse.UnixNano()
	d.lru.MoveToFront(e.elem)
	for d.cfg.MaxBytes > 0 && d.stats.Bytes > d.cfg.MaxBytes && d.lru.Len() > 1 {
		d.dropLocked(d.lru.Back().Value.(string), &d.stats.Evictions)
	}
}

// sweepLocked deletes entries idle longer than the TTL, walking from the
// LRU tail: touch order and last-use order coincide, so the walk stops
// at the first fresh entry.
func (d *Dir) sweepLocked(now time.Time) {
	if d.cfg.TTL <= 0 {
		return
	}
	cutoff := now.Add(-d.cfg.TTL).UnixNano()
	for back := d.lru.Back(); back != nil && d.entries[back.Value.(string)].lastUse <= cutoff; back = d.lru.Back() {
		d.dropLocked(back.Value.(string), &d.stats.Expired)
	}
}

// dropLocked deletes entry name and its file.  A drop the tier makes on
// its own passes the counter it adds to (Evictions or Expired); a
// caller's Remove passes nil.  Drops are rare and the files small, so
// the removal runs under d.mu.
func (d *Dir) dropLocked(name string, counter *int64) {
	if e, ok := d.entries[name]; ok {
		d.lru.Remove(e.elem)
		delete(d.entries, name)
		d.stats.Entries--
		d.stats.Bytes -= e.size
	}
	os.Remove(filepath.Join(d.cfg.Path, name))
	if counter != nil {
		*counter++
	}
}

// Remove deletes entry name and its accounting — the self-heal path for
// an entry that failed validation.  It is neither an eviction nor an
// expiry.
func (d *Dir) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropLocked(name, nil)
}

// Stats sweeps expired entries and returns the footprint and counters.
func (d *Dir) Stats() DirStats {
	d.mu.Lock()
	defer d.unlock(d.stats)
	d.sweepLocked(time.Now())
	return d.stats
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
