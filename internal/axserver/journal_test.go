package axserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoax/internal/apps"
	"autoax/internal/store"
)

// journalPath returns dir's journal file.
func journalPath(dir string) string { return filepath.Join(dir, journalFileName) }

// TestJournalRoundTrip exercises the full open → append → reopen cycle:
// incomplete submits replay in submission order, completed ones are
// compacted away, and the payload survives byte-identically.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, incomplete, maxSeq, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal (fresh): %v", err)
	}
	if len(incomplete) != 0 || maxSeq != 0 {
		t.Fatalf("fresh journal: incomplete=%d maxSeq=%d, want 0/0", len(incomplete), maxSeq)
	}
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	reqs := map[string][]byte{
		"job-000001": []byte(`{"specs":[{"op":"add8","count":8}],"seed":1}`),
		"job-000002": []byte(`{"specs":[{"op":"add9","count":4}],"seed":2}`),
		"job-000003": []byte(`{"specs":[{"op":"sub10","count":6}],"seed":3}`),
	}
	for i, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if err := j.appendSubmit(i+1, id, "library", created, reqs[id]); err != nil {
			t.Fatalf("appendSubmit %s: %v", id, err)
		}
	}
	// Job 2 finishes; 1 and 3 remain incomplete.
	if err := j.appendDone("job-000002", JobSucceeded); err != nil {
		t.Fatalf("appendDone: %v", err)
	}
	st := j.Stats()
	if st.Appended != 3 || st.Completed != 1 {
		t.Fatalf("stats after appends: %+v", st)
	}
	j.close()
	if err := j.append(journalRecord{Type: journalTypeDone, ID: "job-000001"}); err == nil {
		t.Fatal("append after close should fail")
	}

	j2, incomplete, maxSeq, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal (reopen): %v", err)
	}
	defer j2.close()
	if maxSeq != 3 {
		t.Fatalf("maxSeq = %d, want 3", maxSeq)
	}
	if len(incomplete) != 2 {
		t.Fatalf("incomplete = %d records, want 2", len(incomplete))
	}
	for i, wantID := range []string{"job-000001", "job-000003"} {
		rec := incomplete[i]
		if rec.ID != wantID || rec.Kind != "library" {
			t.Fatalf("incomplete[%d] = %s/%s, want %s/library", i, rec.ID, rec.Kind, wantID)
		}
		if !bytes.Equal(rec.Req, reqs[wantID]) {
			t.Fatalf("incomplete[%d] request mutated: %s", i, rec.Req)
		}
		if !rec.Created.Equal(created) {
			t.Fatalf("incomplete[%d] created = %v, want %v", i, rec.Created, created)
		}
	}
	if heals := j2.Stats().SelfHeals; heals != 0 {
		t.Fatalf("clean journal healed %d records", heals)
	}
}

// TestJournalSeqHighWater checks the compaction keeps the ID sequence
// monotonic even when every submit completed: a seq record survives so a
// restarted server never reuses a handed-out job ID.
func TestJournalSeqHighWater(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	for i := 1; i <= 5; i++ {
		id := []string{"", "job-000001", "job-000002", "job-000003", "job-000004", "job-000005"}[i]
		if err := j.appendSubmit(i, id, "library", time.Time{}, []byte(`{}`)); err != nil {
			t.Fatalf("appendSubmit: %v", err)
		}
		if err := j.appendDone(id, JobSucceeded); err != nil {
			t.Fatalf("appendDone: %v", err)
		}
	}
	j.close()

	// Every job completed — nothing replays — but seq must survive both
	// this reopen and the next (the seq record itself re-compacts).
	for round := 0; round < 2; round++ {
		j2, incomplete, maxSeq, err := openJournal(dir)
		if err != nil {
			t.Fatalf("openJournal round %d: %v", round, err)
		}
		if len(incomplete) != 0 {
			t.Fatalf("round %d: %d incomplete records, want 0", round, len(incomplete))
		}
		if maxSeq != 5 {
			t.Fatalf("round %d: maxSeq = %d, want 5", round, maxSeq)
		}
		j2.close()
	}
}

// TestJournalCorruptionEveryByteFlip is the progdisk-style fuzz: with
// three journaled submits, every single-byte flip anywhere in the file
// must be detected and quarantined — at most the record it touches is
// lost, startup never wedges, and the surviving records decode
// byte-identically to the originals.
func TestJournalCorruptionEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	// Submit-only records (no done records): a flip loses at most the one
	// record it lands in, so exactly 2 of 3 must survive every flip.
	reqs := map[string][]byte{
		"job-000001": []byte(`{"specs":[{"op":"add8","count":8}],"seed":1}`),
		"job-000002": []byte(`{"specs":[{"op":"add9","count":4}],"seed":2}`),
		"job-000003": []byte(`{"specs":[{"op":"sub10","count":6}],"seed":3}`),
	}
	for i, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if err := j.appendSubmit(i+1, id, "library", time.Time{}, reqs[id]); err != nil {
			t.Fatalf("appendSubmit: %v", err)
		}
	}
	j.close()
	pristine, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}

	for off := 0; off < len(pristine); off++ {
		corrupt := bytes.Clone(pristine)
		corrupt[off] ^= 0xff
		recs, heals := parseJournal(corrupt)
		if heals < 1 {
			t.Fatalf("offset %d: flip not detected (heals=0, %d records)", off, len(recs))
		}
		var submits []journalRecord
		for _, r := range recs {
			if r.Type == journalTypeSubmit {
				submits = append(submits, r)
			}
		}
		if len(submits) != 2 {
			t.Fatalf("offset %d: %d submits survived, want exactly 2", off, len(submits))
		}
		for _, r := range submits {
			want, ok := reqs[r.ID]
			if !ok {
				t.Fatalf("offset %d: survivor has foreign ID %q", off, r.ID)
			}
			if !bytes.Equal(r.Req, want) {
				t.Fatalf("offset %d: survivor %s request mutated: %s", off, r.ID, r.Req)
			}
		}
	}

	// A truncated tail (torn final append) must also parse cleanly.
	for _, cut := range []int{1, 7, 25} {
		if cut >= len(pristine) {
			continue
		}
		recs, _ := parseJournal(pristine[:len(pristine)-cut])
		if len(recs) < 2 {
			t.Fatalf("truncated by %d: only %d records survived", cut, len(recs))
		}
	}

	// Reopening over a corrupt file must quarantine (count SelfHeals),
	// replay the survivors, and leave a clean compacted journal behind.
	corrupt := bytes.Clone(pristine)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(journalPath(dir), corrupt, 0o644); err != nil {
		t.Fatalf("write corrupt journal: %v", err)
	}
	j2, incomplete, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal over corruption: %v", err)
	}
	if got := j2.Stats().SelfHeals; got < 1 {
		t.Fatalf("SelfHeals = %d, want >= 1", got)
	}
	if len(incomplete) != 2 {
		t.Fatalf("%d records survived corruption, want 2", len(incomplete))
	}
	j2.close()
	j3, incomplete3, _, err := openJournal(dir)
	if err != nil {
		t.Fatalf("openJournal after compaction: %v", err)
	}
	defer j3.close()
	if got := j3.Stats().SelfHeals; got != 0 {
		t.Fatalf("compacted journal still heals %d records", got)
	}
	if len(incomplete3) != len(incomplete) {
		t.Fatalf("compaction changed survivors: %d vs %d", len(incomplete3), len(incomplete))
	}
}

// TestJournalGoldenFrame pins the on-disk record bytes: a submit record
// encodes to the golden frame in internal/store/testdata, and that frame
// decodes back to the record, so journals from earlier builds replay.
func TestJournalGoldenFrame(t *testing.T) {
	golden, err := os.ReadFile("../store/testdata/journal.frame")
	if err != nil {
		t.Fatal(err)
	}
	rec := journalRecord{Type: journalTypeSubmit, Seq: 3, ID: "job-000003", Kind: "library",
		Created: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), Req: []byte(`{"specs":[{"op":"add8","count":2}],"seed":1}`)}
	b, err := encodeJournalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, golden) {
		t.Fatalf("journal frame changed:\n got %x\nwant %x", b, golden)
	}
	got, n, err := decodeJournalRecord(golden)
	if err != nil || n != len(golden) || got.ID != rec.ID || got.Seq != rec.Seq || !got.Created.Equal(rec.Created) || string(got.Req) != string(rec.Req) {
		t.Fatalf("golden frame decoded to (%+v, %d, %v)", got, n, err)
	}
}

// FuzzJournalRecord feeds arbitrary bytes to the journal parser, both as
// a journal file and as the payload of one well-framed record, and every
// submit record it accepts through the job-kind table: decoding and
// validating a record must yield a runFunc or an error, never a panic or
// both.  Nothing runs.  The seeds are the payloads of real submit records
// of all three kinds.
func FuzzJournalRecord(f *testing.F) {
	sobel, err := apps.Sobel().Wire()
	if err != nil {
		f.Fatal(err)
	}
	inline := goldenEvaluate()
	inline.App, inline.Accelerator = "", sobel
	s := &Server{} // validation reads no server state
	for i, sub := range []struct {
		kind string
		req  any
	}{
		{"library", tinyLibrary(1)},
		{"evaluate", goldenEvaluate()},
		{"evaluate", inline},
		{"pipeline", tinyPipeline(11)},
	} {
		req, err := json.Marshal(sub.req)
		if err != nil {
			f.Fatal(err)
		}
		rec := journalRecord{Type: journalTypeSubmit, Seq: i + 1,
			ID: fmt.Sprintf("job-%06d", i+1), Kind: sub.kind, Req: req}
		if _, err := s.recordRun(rec); err != nil {
			f.Fatalf("seed %s record: %v", sub.kind, err)
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, _ := parseJournal(b)
		framed, _ := parseJournal(store.AppendFrame(nil, journalMagic, JournalFormatVersion, b))
		for _, rec := range append(recs, framed...) {
			if rec.Type != journalTypeSubmit {
				continue
			}
			if run, err := s.recordRun(rec); (run == nil) == (err == nil) {
				t.Fatalf("%s record: runFunc %v, error %v", rec.Kind, run != nil, err)
			}
		}
	})
}
