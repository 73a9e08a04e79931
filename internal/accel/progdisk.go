package accel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"autoax/internal/netlist"
	"autoax/internal/store"
)

// ProgramCacheConfig configures an evaluator's compiled-program
// directory.  With a Dir set, every synthesized configuration's
// simplified netlist is also written to disk, best-effort and by a
// background writer, and a fresh Evaluator over the same circuits decodes
// the netlist from the file and compiles it instead of re-running
// Flatten+Simplify — the warm-restart path of a long-running search
// service.
type ProgramCacheConfig struct {
	// Dir is the cache directory; empty disables the disk tier.
	Dir string
	// MaxBytes bounds the directory's total entry bytes, evicting least
	// recently used files past it; 0 means DefaultProgramDiskBytes, and
	// a negative value means unbounded.
	MaxBytes int64
	// TTL expires entries idle longer than this (0 disables expiry).
	TTL time.Duration
}

// DefaultProgramDiskBytes is the disk tier's byte budget when
// ProgramCacheConfig.MaxBytes is zero.
const DefaultProgramDiskBytes int64 = 256 << 20

// progDiskSuffix names disk-tier entry files; anything else in the
// directory (temp files included) is ignored by the startup scan.
const progDiskSuffix = ".prog"

// progDiskMagic guards entry files against foreign content before any
// payload is parsed.
var progDiskMagic = [4]byte{'a', 'x', 'p', 'g'}

// progDiskName maps a cache key to its entry file.  The entry format
// version participates in the hash, so a format rotation turns every
// old entry into a clean miss under a different name — stale files age
// out through the byte budget or TTL instead of surfacing as decode
// errors.
func progDiskName(key string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d/%s", netlist.ProgramFormatVersion, key)))
	return hex.EncodeToString(h[:]) + progDiskSuffix
}

// ProgramDir is an open compiled-program directory: a store.Dir of
// progDiskSuffix entry files, each one simplified netlist in a store
// frame.  Open it once per directory and process and share the handle
// across evaluators — the byte budget and TTL hold per handle, so two
// handles over one directory would each enforce the budget alone, and a
// handle answers probes from its own inventory, so it never sees entries
// another handle writes.
//
// Writes are best-effort and happen off the evaluation path: store
// queues a netlist for a background writer and returns, dropping the
// write when progDiskQueue writes are already pending.  Call Flush before
// reading the directory behind the handle's back or before exiting.
// Safe for concurrent use.
type ProgramDir struct {
	dir *store.Dir

	mu      sync.Mutex
	queue   []pendingWrite // FIFO of writes not yet started
	writing bool           // a drain goroutine is running; set while queue is non-empty
	idle    sync.Cond      // on mu; broadcast when the drain goroutine stops
}

// pendingWrite is one queued store: the simplified netlist is immutable,
// so the writer encodes it later without a copy.
type pendingWrite struct {
	key  string
	simp *netlist.Netlist
}

// progDiskQueue bounds a ProgramDir's pending writes.  A full queue means
// the disk cannot keep up with the builds, and the tier is only an
// accelerator, so the newest write is dropped rather than waited for.
const progDiskQueue = 64

// OpenProgramDir opens (creating if needed) and inventories cfg.Dir,
// trimming it to the byte budget and TTL.  A zero-Dir config returns a
// nil handle: evaluators compile every configuration.
func OpenProgramDir(cfg ProgramCacheConfig) (*ProgramDir, error) {
	if cfg.Dir == "" {
		return nil, nil
	}
	max := cfg.MaxBytes
	if max == 0 {
		max = DefaultProgramDiskBytes
	}
	d, err := store.OpenDir(store.DirConfig{
		Path:     cfg.Dir,
		Suffix:   progDiskSuffix,
		MaxBytes: max,
		TTL:      cfg.TTL,
		OnDrop: func(evicted, expired int64) {
			progDiskEvictions.Add(evicted)
			progDiskExpired.Add(expired)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("accel: program cache dir: %w", err)
	}
	p := &ProgramDir{dir: d}
	p.idle.L = &p.mu
	return p, nil
}

// encodeArtifact serializes simp as one entry file image — a store frame
// whose payload is the netlist's binary encoding — reusing buf's storage.
// The payload is staged at the front of the buffer and framed right after
// itself, so it returns the grown buffer, for the next call, and the
// image, which aliases its tail.
func encodeArtifact(buf []byte, simp *netlist.Netlist) (grown, image []byte) {
	payload := simp.AppendBinary(buf[:0])
	grown = store.AppendFrame(payload, progDiskMagic, netlist.ProgramFormatVersion, payload)
	return grown, grown[len(payload):]
}

// decodeArtifact parses and validates an entry file image; any header,
// checksum or codec mismatch fails (the caller self-heals by deleting
// the file).  The decoded netlist passes Netlist.Validate, so a truncated
// or bit-flipped entry can degrade only into a rebuild; the caller
// compiles what decodes.
func decodeArtifact(buf []byte) (*netlist.Netlist, error) {
	payload, n, err := store.ReadFrame(buf, progDiskMagic, netlist.ProgramFormatVersion, math.MaxUint64)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("%d trailing bytes", len(buf)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("accel: program cache entry: %w", err)
	}
	simp, rest, err := netlist.DecodeNetlist(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("accel: program cache entry: %d trailing bytes", len(rest))
	}
	return simp, nil
}

// load returns the simplified netlist stored for key, or ok=false on a
// miss.  A name the handle has not inventoried is a miss without a
// syscall.  A present-but-invalid entry (foreign file, truncation,
// rotation race, bit rot) is deleted and reported as healed, then as a
// miss so the caller rebuilds and overwrites it.
func (p *ProgramDir) load(key string) (simp *netlist.Netlist, ok, healed bool) {
	name := progDiskName(key)
	if !p.dir.Has(name) {
		return nil, false, false
	}
	buf, err := p.dir.Read(name)
	if err != nil {
		return nil, false, false
	}
	simp, err = decodeArtifact(buf)
	if err != nil {
		p.dir.Remove(name)
		return nil, false, true
	}
	p.dir.Touch(name, int64(len(buf)))
	return simp, true, false
}

// store queues key's simplified netlist for the background writer and
// returns; with progDiskQueue writes already pending it drops the write
// instead.
// Dropped and failed writes are silent beyond the missing entry and the
// drop counter: the disk tier is an accelerator, not a source of truth.
func (p *ProgramDir) store(key string, simp *netlist.Netlist) {
	p.mu.Lock()
	if len(p.queue) >= progDiskQueue {
		p.mu.Unlock()
		progDiskDropped.Inc()
		return
	}
	p.queue = append(p.queue, pendingWrite{key, simp})
	start := !p.writing
	p.writing = true
	p.mu.Unlock()
	if start {
		go p.drain()
	}
}

// drain writes queued netlists in order until the queue is empty, then
// marks the writer idle and exits; store starts the next one.  One
// encode buffer serves every write of a run.
func (p *ProgramDir) drain() {
	var buf, image []byte
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.queue = nil
			p.writing = false
			p.idle.Broadcast()
			p.mu.Unlock()
			return
		}
		w := p.queue[0]
		p.queue[0] = pendingWrite{}
		p.queue = p.queue[1:]
		p.mu.Unlock()
		buf, image = encodeArtifact(buf, w.simp)
		_ = p.dir.Write(progDiskName(w.key), image)
	}
}

// Flush blocks until every queued write has reached the directory (or
// failed) and the writer is idle.  Writes queued while Flush waits are
// waited for too.  A nil handle has nothing to flush.
func (p *ProgramDir) Flush() {
	if p == nil {
		return
	}
	p.mu.Lock()
	for p.writing {
		p.idle.Wait()
	}
	p.mu.Unlock()
}
