package axserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoax/internal/store"
)

// The write-ahead job journal makes accepted work durable: every
// submission appends a checksummed record before the job is enqueued,
// every terminal state appends a completion record, and a restarted
// server replays the submit records without a matching completion — in
// original submission order, under their original job IDs.  Results are
// content-addressed, so a replayed job whose artifact survived in the
// cache resolves instantly and bit-identically; everything else simply
// re-executes.
//
// Each record is one store.AppendFrame frame
//
//	magic | u32 format version | u64 payload length | payload | u64 FNV-1a
//
// with a JSON journalRecord payload, appended to one file and fsynced
// per record (submissions are not a hot path).  Startup compacts the
// file — atomically, temp file + rename — down to a seq high-water
// record plus the incomplete submits, so completed history and any
// corrupt bytes are quarantined rather than accumulated.  A corrupt
// record is detected by its checksum (or header), counted as a
// self-heal, and skipped by resynchronizing on the next record magic:
// one flipped byte costs at most that one record, never the startup.

// JournalFormatVersion identifies the journal record codec; a version
// bump makes old records parse as corruption (dropped and healed), not
// as misread requests.
const JournalFormatVersion = 1

// journalMagic guards each record frame against foreign bytes before
// any payload is parsed, and is the resynchronization anchor after a
// corrupt record.
var journalMagic = [4]byte{'a', 'x', 'j', 'l'}

// journalFileName is the journal's single append-only file inside the
// configured journal directory.
const journalFileName = "jobs.journal"

// maxJournalPayload bounds a parsed record's claimed payload length;
// requests are capped at maxBodyBytes, so anything bigger is corruption.
const maxJournalPayload = 2 * maxBodyBytes

// Journal record types.
const (
	// journalTypeSubmit records an accepted job: identity plus the raw
	// request needed to re-run it.
	journalTypeSubmit = "submit"
	// journalTypeDone records a job reaching a terminal state; its
	// submit record is dropped at the next compaction.
	journalTypeDone = "done"
	// journalTypeSeq records the ID-sequence high-water mark, so job
	// IDs are never reused across restarts even after the completed
	// submits that held them are compacted away.
	journalTypeSeq = "seq"
)

// journalRecord is the JSON payload of one journal frame.
type journalRecord struct {
	Type string `json:"type"`
	// Seq is the job's creation sequence (submit records) or the
	// allocation high-water mark (seq records).
	Seq  int    `json:"seq,omitempty"`
	ID   string `json:"id,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Created preserves the original acceptance time across a replay.
	Created time.Time `json:"created,omitzero"`
	// Req is the submitted request exactly as accepted (pre-
	// normalization); replay re-validates and re-normalizes it through
	// the same code path as a live submission.
	Req json.RawMessage `json:"req,omitempty"`
	// State is the terminal state (done records).
	State JobState `json:"state,omitempty"`
}

// JournalStats reports write-ahead journal activity.
type JournalStats struct {
	// Appended counts submit records written since startup.
	Appended int64 `json:"appended"`
	// Completed counts terminal-state records written since startup.
	Completed int64 `json:"completed"`
	// Replayed counts incomplete jobs re-enqueued at startup.
	Replayed int64 `json:"replayed"`
	// SelfHeals counts corrupt records detected, quarantined and
	// skipped (at startup parse time).
	SelfHeals int64 `json:"selfHeals"`
}

// journal is the open write-ahead log.  Appends are serialized and
// fsynced; parsing and compaction happen only at open time.
type journal struct {
	mu sync.Mutex
	f  *os.File

	appended, completed, replayed, selfHeals atomic.Int64
}

// encodeJournalRecord frames one record for appending.
func encodeJournalRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("axserver: encoding journal record: %w", err)
	}
	return store.AppendFrame(nil, journalMagic, JournalFormatVersion, payload), nil
}

// decodeJournalRecord parses one record frame from the front of buf,
// returning the record and the bytes it consumed.  Any header, length,
// checksum or payload mismatch fails — the caller heals by skipping to
// the next magic.
func decodeJournalRecord(buf []byte) (journalRecord, int, error) {
	var zero journalRecord
	payload, n, err := store.ReadFrame(buf, journalMagic, JournalFormatVersion, maxJournalPayload)
	if err != nil {
		return zero, 0, fmt.Errorf("axserver: journal record: %w", err)
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return zero, 0, fmt.Errorf("axserver: journal record: %w", err)
	}
	switch rec.Type {
	case journalTypeSubmit:
		if rec.ID == "" || rec.Kind == "" || rec.Seq <= 0 {
			return zero, 0, fmt.Errorf("axserver: journal submit record missing identity")
		}
	case journalTypeDone:
		if rec.ID == "" {
			return zero, 0, fmt.Errorf("axserver: journal done record missing id")
		}
	case journalTypeSeq:
		if rec.Seq < 0 {
			return zero, 0, fmt.Errorf("axserver: journal seq record negative")
		}
	default:
		return zero, 0, fmt.Errorf("axserver: journal record: unknown type %q", rec.Type)
	}
	return rec, n, nil
}

// parseJournal decodes every valid record in buf.  A record that fails
// validation costs one self-heal and a resynchronization to the next
// record magic, so corruption — a flipped byte, a torn tail from a
// crash mid-append — drops at most the records it touches and can
// never wedge the parse.
func parseJournal(buf []byte) (recs []journalRecord, selfHeals int) {
	i := 0
	for i < len(buf) {
		rec, n, err := decodeJournalRecord(buf[i:])
		if err == nil {
			recs = append(recs, rec)
			i += n
			continue
		}
		selfHeals++
		next := bytes.Index(buf[i+1:], journalMagic[:])
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return recs, selfHeals
}

// openJournal opens (creating if needed) the journal in dir, parses and
// compacts it, and returns the open journal, the incomplete submit
// records in submission order, and the job-ID sequence high-water mark.
func openJournal(dir string) (*journal, []journalRecord, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("axserver: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("axserver: journal read: %w", err)
	}
	recs, heals := parseJournal(buf)

	done := make(map[string]bool)
	maxSeq := 0
	var submits []journalRecord
	for _, r := range recs {
		switch r.Type {
		case journalTypeSubmit:
			submits = append(submits, r)
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		case journalTypeDone:
			done[r.ID] = true
		case journalTypeSeq:
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
	}
	incomplete := submits[:0:0]
	for _, r := range submits {
		if !done[r.ID] {
			incomplete = append(incomplete, r)
		}
	}
	sort.SliceStable(incomplete, func(i, k int) bool { return incomplete[i].Seq < incomplete[k].Seq })

	// Compact: the rewritten journal is the seq high-water mark plus the
	// incomplete submits.  Written to a temp file and renamed into
	// place, so a crash mid-compaction leaves the previous journal
	// intact (plus an ignored temp file).
	var img []byte
	if maxSeq > 0 {
		b, err := encodeJournalRecord(journalRecord{Type: journalTypeSeq, Seq: maxSeq})
		if err != nil {
			return nil, nil, 0, err
		}
		img = append(img, b...)
	}
	for _, r := range incomplete {
		b, err := encodeJournalRecord(r)
		if err != nil {
			return nil, nil, 0, err
		}
		img = append(img, b...)
	}
	if err := store.WriteFileAtomic(path, img, true); err != nil {
		return nil, nil, 0, fmt.Errorf("axserver: journal compact: %w", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("axserver: journal open: %w", err)
	}
	j := &journal{f: f}
	j.selfHeals.Store(int64(heals))
	return j, incomplete, maxSeq, nil
}

// append frames rec and writes it durably (fsync per record: accepted
// work must survive an immediate crash, and submissions are rare next
// to the work they describe).
func (j *journal) append(rec journalRecord) error {
	b, err := encodeJournalRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("axserver: journal closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("axserver: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("axserver: journal sync: %w", err)
	}
	return nil
}

// appendSubmit records an accepted job before it is enqueued.
func (j *journal) appendSubmit(seq int, id, kind string, created time.Time, req []byte) error {
	err := j.append(journalRecord{
		Type: journalTypeSubmit, Seq: seq, ID: id, Kind: kind,
		Created: created, Req: req,
	})
	if err == nil {
		j.appended.Add(1)
	}
	return err
}

// appendDone records a job reaching a terminal state, releasing its
// submit record at the next compaction.
func (j *journal) appendDone(id string, state JobState) error {
	err := j.append(journalRecord{Type: journalTypeDone, ID: id, State: state})
	if err == nil {
		j.completed.Add(1)
	}
	return err
}

// close stops further appends and releases the file.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// Stats returns the journal counters.
func (j *journal) Stats() JournalStats {
	return JournalStats{
		Appended:  j.appended.Load(),
		Completed: j.completed.Load(),
		Replayed:  j.replayed.Load(),
		SelfHeals: j.selfHeals.Load(),
	}
}
