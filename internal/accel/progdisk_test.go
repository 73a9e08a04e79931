package accel

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"autoax/internal/acl"
	"autoax/internal/imagedata"
)

// diskFixture builds an evaluator over a program directory rooted at
// dir, plus the tiny app's exact configuration.  The directory is
// flushed at cleanup, so no queued write outlives the test's temp
// directory.
func diskFixture(t *testing.T, dir string) (*Evaluator, Configuration) {
	t.Helper()
	app := tinyApp()
	images := []*imagedata.Image{imagedata.Synthetic(16, 12, 3)}
	pd, err := OpenProgramDir(ProgramCacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pd.Flush)
	ev, err := NewEvaluatorWithCache(app, images, pd)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ev, cfg
}

// flush waits until ev's queued program writes have reached its
// directory.
func flush(ev *Evaluator) { ev.shared.progs.disk.Flush() }

// entryFiles lists the disk tier's entry files.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if filepath.Ext(de.Name()) == progDiskSuffix {
			names = append(names, de.Name())
		}
	}
	return names
}

// TestProgramDiskWarmRestart pins the tentpole acceptance: a fresh
// evaluator over a populated program directory synthesizes nothing — the
// build count stays zero and the netlist is decoded from disk and
// compiled, with a bit-identical evaluation result.
func TestProgramDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ev1, cfg := diskFixture(t, dir)
	want, err := ev1.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1 := ev1.ProgramCacheStats()
	if st1.Misses != 1 || st1.Hits != 0 {
		t.Fatalf("cold stats %+v, want 1 miss and no hit", st1)
	}
	flush(ev1)
	if n := entryFiles(t, dir); len(n) != 1 {
		t.Fatalf("cold run left %d entry files, want 1", len(n))
	}

	// "Restart": a brand-new evaluator sharing only the directory.
	ev2, cfg2 := diskFixture(t, dir)
	got, err := ev2.Evaluate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warm-restart result %+v != cold %+v", got, want)
	}
	st2 := ev2.ProgramCacheStats()
	if st2.Misses != 0 {
		t.Fatalf("warm restart executed %d builds, want 0 (stats %+v)", st2.Misses, st2)
	}
	if st2.Hits != 1 || st2.SelfHeals != 0 {
		t.Fatalf("warm stats %+v, want exactly 1 hit and no self-heals", st2)
	}
}

// TestProgramDiskGoldenBytes pins the entry file format: the tiny app's
// exact configuration encodes to the golden artifact in
// internal/store/testdata, and that file decodes, so program directories
// from earlier builds keep serving.  A netlist codec change must bump
// netlist.ProgramFormatVersion and regenerate the golden file.
func TestProgramDiskGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("../store/testdata/tiny.prog")
	if err != nil {
		t.Fatal(err)
	}
	ev, cfg := diskFixture(t, t.TempDir())
	simp, _, err := ev.compiled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, b := encodeArtifact(nil, simp); !bytes.Equal(b, golden) {
		t.Fatalf("artifact bytes changed: %d bytes, golden %d", len(b), len(golden))
	}
	if _, err := decodeArtifact(golden); err != nil {
		t.Fatalf("golden artifact does not decode: %v", err)
	}
}

// TestProgramDiskCorruptSelfHeal verifies that a damaged entry is
// deleted, counted, rebuilt and re-persisted — and that every
// single-byte corruption of a valid entry is detected by the decoder,
// so a damaged entry never reaches Compile as a different circuit.
func TestProgramDiskCorruptSelfHeal(t *testing.T) {
	dir := t.TempDir()
	ev1, cfg := diskFixture(t, dir)
	want, err := ev1.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flush(ev1)
	names := entryFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("%d entry files, want 1", len(names))
	}
	path := filepath.Join(dir, names[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, 9, len(buf) / 2, len(buf) - 3} {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, err := decodeArtifact(mut); err == nil {
			t.Fatalf("byte flip at %d decoded cleanly", i)
		}
	}
	if _, err := decodeArtifact(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated entry decoded cleanly")
	}

	// Damage the file on disk; a fresh evaluator must self-heal: delete,
	// rebuild, overwrite — and still produce the identical result.
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ev2, cfg2 := diskFixture(t, dir)
	got, err := ev2.Evaluate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("self-healed result %+v != original %+v", got, want)
	}
	st := ev2.ProgramCacheStats()
	if st.SelfHeals != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 1 self-heal and 1 rebuild", st)
	}
	// The rebuild re-persisted a valid entry: a third evaluator hits.
	flush(ev2)
	ev3, cfg3 := diskFixture(t, dir)
	if _, err := ev3.Evaluate(cfg3); err != nil {
		t.Fatal(err)
	}
	if st := ev3.ProgramCacheStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("post-heal stats %+v, want a clean hit", st)
	}
}

// TestProgramDiskPrecompile checks Precompile warms the disk tier
// without an evaluation, and that a key rotation (different format
// version in the name hash) would miss cleanly: a foreign file with the
// entry suffix is left alone by lookups for other keys.
func TestProgramDiskPrecompile(t *testing.T) {
	dir := t.TempDir()
	// A stray file that is not a valid entry name for our key: lookups
	// must not touch it (rotation leaves old-version files behind the
	// same way until the budget or TTL collects them).
	stray := filepath.Join(dir, "0000deadbeef"+progDiskSuffix)
	if err := os.WriteFile(stray, []byte("not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	ev, cfg := diskFixture(t, dir)
	if err := ev.Precompile(cfg); err != nil {
		t.Fatal(err)
	}
	st := ev.ProgramCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.SelfHeals != 0 {
		t.Fatalf("stats %+v, want 1 build, no hit, no self-heal of the stray", st)
	}
	flush(ev)
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file touched by unrelated lookups: %v", err)
	}
	ev2, _ := diskFixture(t, dir)
	if err := ev2.Precompile(cfg); err != nil {
		t.Fatal(err)
	}
	if st := ev2.ProgramCacheStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v, want Precompile served from disk", st)
	}
}

// TestProgramDiskBudgetAndTTL exercises LRU byte eviction (never the
// newest entry) and TTL expiry on the tier directly.
func TestProgramDiskBudgetAndTTL(t *testing.T) {
	dir := t.TempDir()
	ev, cfg := diskFixture(t, dir)
	simp, _, err := ev.compiled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, image := encodeArtifact(nil, simp)
	size := int64(len(image))

	tier, err := OpenProgramDir(ProgramCacheConfig{Dir: t.TempDir(), MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tier.store(fmt.Sprintf("key-%d", i), simp)
	}
	tier.Flush()
	if got := tier.dir.Stats().Evictions; got != 2 {
		t.Fatalf("%d evictions under a 2-entry budget, want 2", got)
	}
	if _, ok, _ := tier.load("key-3"); !ok {
		t.Fatal("newest entry evicted by the byte budget")
	}
	if _, ok, _ := tier.load("key-0"); ok {
		t.Fatal("oldest entry survived past the byte budget")
	}

	// TTL: age the surviving files behind the tier's back, then rescan —
	// the restart path — and watch them expire.
	ttlDir := t.TempDir()
	ttlTier, err := OpenProgramDir(ProgramCacheConfig{Dir: ttlDir, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ttlTier.store("k", simp)
	ttlTier.Flush()
	old := time.Now().Add(-time.Hour)
	for _, n := range entryFiles(t, ttlDir) {
		if err := os.Chtimes(filepath.Join(ttlDir, n), old, old); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := OpenProgramDir(ProgramCacheConfig{Dir: ttlDir, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reopened.load("k"); ok {
		t.Fatal("entry idle past the TTL survived a rescan")
	}
	if got := reopened.dir.Stats().Expired; got != 1 {
		t.Fatalf("%d TTL expiries, want 1", got)
	}
}

// pauseWriter marks pd's idle writer busy without starting one, so
// stores queue up — and past progDiskQueue drop — deterministically.  The
// returned resume starts the withheld drain once; it also runs at
// cleanup, so a failed test does not leave a Flush waiting forever.
func pauseWriter(t *testing.T, pd *ProgramDir) (resume func()) {
	pd.mu.Lock()
	pd.writing = true
	pd.mu.Unlock()
	var once sync.Once
	resume = func() { once.Do(func() { go pd.drain() }) }
	t.Cleanup(resume)
	return resume
}

// TestProgramDiskWriteBehind pins the write-behind queue: stores past
// progDiskQueue are dropped and counted, every accepted write reaches
// the directory by Flush and serves a fresh handle without a build,
// probes answer from the handle's inventory, a dropped configuration
// rebuilds to the identical evaluation, and concurrent stores, loads and
// flushes over one handle are race-free.
func TestProgramDiskWriteBehind(t *testing.T) {
	ref, cfg := diskFixture(t, t.TempDir())
	want, err := ref.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simp, _, err := ref.compiled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, image := encodeArtifact(nil, simp)

	dir := t.TempDir()
	ev, _ := diskFixture(t, dir)
	pd := ev.shared.progs.disk
	dropped := progDiskDropped.Value()
	resume := pauseWriter(t, pd)
	keys := make([]string, progDiskQueue)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		pd.store(keys[i], simp)
	}
	pd.store("key-over", simp)
	got, err := ev.Evaluate(cfg) // builds; its write finds the queue full
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result %+v with a full queue, want %+v", got, want)
	}
	if n := progDiskDropped.Value() - dropped; n != 2 {
		t.Fatalf("%d writes dropped past a full queue, want 2", n)
	}
	resume()
	pd.Flush()
	if n := len(entryFiles(t, dir)); n != progDiskQueue {
		t.Fatalf("%d entry files after Flush, want the %d accepted writes", n, progDiskQueue)
	}

	// A fresh handle serves every accepted key from disk, byte for byte.
	fresh, err := OpenProgramDir(ProgramCacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		got, ok, healed := fresh.load(k)
		if !ok || healed {
			t.Fatalf("accepted key %s: ok=%v healed=%v on a fresh handle, want a clean load", k, ok, healed)
		}
		if _, b := encodeArtifact(nil, got); !bytes.Equal(b, image) {
			t.Fatalf("key %s decoded to a different artifact", k)
		}
	}

	// Probes answer from the handle's inventory: an entry that appeared
	// behind an open handle's back is a miss until a handle inventories it.
	blindDir := t.TempDir()
	blind, err := OpenProgramDir(ProgramCacheConfig{Dir: blindDir})
	if err != nil {
		t.Fatal(err)
	}
	name := progDiskName(keys[0])
	if err := os.WriteFile(filepath.Join(blindDir, name), image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, healed := blind.load(keys[0]); ok || healed {
		t.Fatalf("load of an entry the handle never inventoried: ok=%v healed=%v, want a plain miss", ok, healed)
	}
	reopened, err := OpenProgramDir(ProgramCacheConfig{Dir: blindDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := reopened.load(keys[0]); !ok {
		t.Fatal("a handle that inventoried the entry missed it")
	}

	// The dropped configuration rebuilds to the identical evaluation.
	ev2, cfg2 := diskFixture(t, dir)
	got, err = ev2.Evaluate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rebuilt result %+v, want %+v", got, want)
	}
	if st := ev2.ProgramCacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want the dropped write to rebuild once", st)
	}

	// Concurrent stores, loads and flushes over one handle.
	shared, err := OpenProgramDir(ProgramCacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("c-%d", (7*g+i)%20)
				switch i % 3 {
				case 0:
					shared.store(k, simp)
				case 1:
					if a, ok, healed := shared.load(k); healed || ok && a.NumNodes() != simp.NumNodes() {
						t.Errorf("load %s: ok=%v healed=%v", k, ok, healed)
					}
				default:
					shared.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	shared.Flush()
	shared.mu.Lock()
	busy := shared.writing || len(shared.queue) != 0
	shared.mu.Unlock()
	if busy {
		t.Fatal("writer busy after Flush")
	}
}

// TestCircuitKeysBounded pins the structural-key memo's bound: feeding
// more distinct circuits than circuitKeyCap resets the memo instead of
// growing it, and the evictions are counted.
func TestCircuitKeysBounded(t *testing.T) {
	app := tinyApp()
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := &programStore{}
	base := cfg[0]
	for i := 0; i < circuitKeyCap+10; i++ {
		c := *base // distinct pointer per iteration, same structure
		ps.configKey(Configuration{&c})
		if n := len(ps.circuitKeys); n > circuitKeyCap {
			t.Fatalf("memo grew to %d entries, cap %d", n, circuitKeyCap)
		}
	}
	if st := ps.st; st.KeyEvictions < circuitKeyCap {
		t.Fatalf("stats %+v, want at least one full memo reset counted", st)
	}
}
