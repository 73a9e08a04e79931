package accel

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoax/internal/acl"
	"autoax/internal/imagedata"
)

// diskFixture is cacheFixture over an evaluator with a persistent
// program tier rooted at dir.
func diskFixture(t *testing.T, dir string) (*Evaluator, Configuration) {
	t.Helper()
	app := tinyApp()
	images := []*imagedata.Image{imagedata.Synthetic(16, 12, 3)}
	pd, err := OpenProgramDir(ProgramCacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
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
// evaluator over a populated program directory compiles nothing — the
// build count stays zero and the artifact is decoded from disk, with a
// bit-identical evaluation result.
func TestProgramDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ev1, cfg := diskFixture(t, dir)
	want, err := ev1.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1 := ev1.ProgramCacheStats()
	if st1.Misses != 1 || st1.DiskMisses != 1 || st1.DiskHits != 0 {
		t.Fatalf("cold stats %+v, want 1 miss, 1 disk miss", st1)
	}
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
	if st2.DiskHits != 1 || st2.SelfHeals != 0 {
		t.Fatalf("warm stats %+v, want exactly 1 disk hit and no self-heals", st2)
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
	art, err := ev.compiled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b := encodeArtifact(art); !bytes.Equal(b, golden) {
		t.Fatalf("artifact bytes changed: %d bytes, golden %d", len(b), len(golden))
	}
	if _, err := decodeArtifact(golden); err != nil {
		t.Fatalf("golden artifact does not decode: %v", err)
	}
}

// TestProgramDiskCorruptSelfHeal verifies that a damaged entry is
// deleted, counted, rebuilt and re-persisted — and that every
// single-byte corruption of a valid entry is detected by the decoder
// (the programs feed unsafe kernels, so this is a safety property, not
// just hygiene).
func TestProgramDiskCorruptSelfHeal(t *testing.T) {
	dir := t.TempDir()
	ev1, cfg := diskFixture(t, dir)
	want, err := ev1.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if st.SelfHeals != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats %+v, want 1 self-heal and 1 rebuild", st)
	}
	// The rebuild re-persisted a valid entry: a third evaluator hits.
	ev3, cfg3 := diskFixture(t, dir)
	if _, err := ev3.Evaluate(cfg3); err != nil {
		t.Fatal(err)
	}
	if st := ev3.ProgramCacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("post-heal stats %+v, want a clean disk hit", st)
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
	if st.Misses != 1 || st.DiskMisses != 1 || st.SelfHeals != 0 {
		t.Fatalf("stats %+v, want 1 build, 1 disk miss, no self-heal of the stray", st)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file touched by unrelated lookups: %v", err)
	}
	ev2, _ := diskFixture(t, dir)
	if err := ev2.Precompile(cfg); err != nil {
		t.Fatal(err)
	}
	if st := ev2.ProgramCacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v, want Precompile served from disk", st)
	}
}

// TestProgramDiskBudgetAndTTL exercises LRU byte eviction (never the
// newest entry) and TTL expiry on the tier directly.
func TestProgramDiskBudgetAndTTL(t *testing.T) {
	dir := t.TempDir()
	ev, cfg := diskFixture(t, dir)
	art, err := ev.compiled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(encodeArtifact(art)))

	tier, err := OpenProgramDir(ProgramCacheConfig{Dir: t.TempDir(), MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tier.store(fmt.Sprintf("key-%d", i), art)
	}
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
	ttlTier.store("k", art)
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

// TestCircuitKeysBounded pins the structural-key memo's bound: feeding
// more distinct circuits than circuitKeyCap resets the memo instead of
// growing it, and the evictions are counted.
func TestCircuitKeysBounded(t *testing.T) {
	app := tinyApp()
	cfg, err := ExactConfiguration(app.Graph, acl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc := newProgramCache(4)
	base := cfg[0]
	for i := 0; i < circuitKeyCap+10; i++ {
		c := *base // distinct pointer per iteration, same structure
		pc.configKey(Configuration{&c})
		if n := len(pc.circuitKeys); n > circuitKeyCap {
			t.Fatalf("memo grew to %d entries, cap %d", n, circuitKeyCap)
		}
	}
	if st := pc.stats(); st.KeyEvictions < circuitKeyCap {
		t.Fatalf("stats %+v, want at least one full memo reset counted", st)
	}
}
