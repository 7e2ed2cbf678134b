// Package journal is arld's write-ahead job journal: the durability
// layer that makes the campaign service crash-restartable. Every
// accepted job and every unit state transition is written as a
// record as the in-memory state changes, and made durable before any
// effect of the change leaves the process, so that on restart the
// service replays the journal and reconstructs exactly the jobs, unit
// states, results and event streams (with their sequence numbers)
// that clients had already observed; incomplete units are re-enqueued
// and recompute through the artifact-store memo.
//
// The journal is a store.Log whose frames each hold one Record as
// JSON, format "arl-journal/v2". Journals of the line format before it
// are not read: their segment names are not the log's. The log owns
// the segments, the framing and checksums, group commit, failure
// handling and quarantine; this package owns the records and their
// replay. Replay reads each segment in one read, skips and counts
// damaged frames and torn tails, and hands every intact record to its
// caller in order.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/store"
)

// DefaultSegmentCap is the rotation threshold: a flush that finds the
// active segment past this many bytes starts a fresh segment first.
const DefaultSegmentCap = 4 << 20

// Record types.
const (
	// TypeJob records an accepted campaign: its ID, tenant, idempotency
	// key and the full request (from which the unit list deterministically
	// re-expands).
	TypeJob = "job"
	// TypeEvent records one unit state transition, mirroring the
	// service's NDJSON event stream (same Seq numbering) plus the
	// result payload on completion.
	TypeEvent = "event"
	// TypeEnd records a job reaching its terminal state.
	TypeEnd = "end"
)

// Record is one journaled fact.
type Record struct {
	T   string `json:"t"`
	Job string `json:"job"`

	// TypeJob fields. Version names the code version that produces the
	// job's results (experiments.StoreVersion).
	Tenant  string          `json:"tenant,omitempty"`
	IdemKey string          `json:"idem,omitempty"`
	Req     json.RawMessage `json:"req,omitempty"`
	Version string          `json:"version,omitempty"`

	// TypeEvent fields.
	Seq     int             `json:"seq,omitempty"`
	Unit    int             `json:"unit,omitempty"`
	State   string          `json:"state,omitempty"` // also TypeEnd's final job state
	Deduped bool            `json:"deduped,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`

	// A grant's fencing token and worker (on a running event).
	Token  uint64 `json:"token,omitempty"`
	Worker string `json:"worker,omitempty"`
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Segments    int // segment files scanned
	Records     int // records recovered intact
	Corrupt     int // damaged frames and stretches skipped
	Torn        int // torn tails (crash mid-append signatures)
	Quarantined int // copies of damage made in quarantine/ this pass
}

// Pos is a position in the journal: the batch a Write's records are
// flushed in. The zero Pos precedes every record and is always
// durable.
type Pos = store.Pos

// Journal is an open write-ahead journal rooted at one directory. All
// methods are safe for concurrent use.
type Journal struct {
	log *store.Log

	mu     sync.Mutex // orders Write against Close
	closed bool
}

// Open opens (creating as needed) the journal at dir. Its first flush
// starts a fresh segment.
func Open(dir string) (*Journal, error) {
	return OpenFS(store.OS(), dir)
}

// OpenFS is Open over an explicit filesystem seam. It reads nothing.
func OpenFS(fs store.FS, dir string) (*Journal, error) {
	l, err := store.OpenLog(fs, dir, filepath.Join(dir, "quarantine"))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l.SetSegmentCap(DefaultSegmentCap)
	return &Journal{log: l}, nil
}

// SetSegmentCap overrides the rotation threshold in bytes (<= 0
// restores DefaultSegmentCap). Tests use it to cross rotation
// boundaries without writing megabytes.
func (j *Journal) SetSegmentCap(n int) {
	if n <= 0 {
		n = DefaultSegmentCap
	}
	j.log.SetSegmentCap(int64(n))
}

// OnFailure sets fn to be told, once, of each batch whose write or
// fsync fails. It runs in the flush's leader with no journal lock held.
// Sync reports the same error to every waiter on the batch; fn is the
// place to count it.
func (j *Journal) OnFailure(fn func(error)) { j.log.OnFailure(fn) }

// Appends reports how many records this process has made durable.
func (j *Journal) Appends() int { return j.log.Frames() }

// Write encodes records and buffers them for the next flush, returning
// the position Sync waits on. It does no I/O. Records of one Write
// land in one batch, so records that must become durable together (a
// job's last unit event and its end record) do. Write fails only on a
// closed journal or an unencodable record.
//
// A record's Result must be valid JSON, as json.Marshal writes it or
// CompactResult makes it: Write splices it in as the record's last
// field without validating it again (see encodeRecord).
func (j *Journal) Write(recs ...Record) (Pos, error) {
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		p, err := encodeRecord(rec)
		if err != nil {
			return Pos{}, fmt.Errorf("journal: encoding record: %w", err)
		}
		payloads[i] = p
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Pos{}, fmt.Errorf("journal: appending: %w", os.ErrClosed)
	}
	return j.log.Write(payloads...), nil
}

// CompactResult validates a result that comes from outside the
// process and returns it in the form a Record's Result must take:
// valid, compact JSON. A result json.Marshal wrote, or one replayed
// from the journal, is in that form already.
func CompactResult(b []byte) (json.RawMessage, error) {
	var buf bytes.Buffer
	buf.Grow(len(b))
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeRecord is rec's JSON. Its Result, compact since it entered
// the process, is appended as the last field rather than validated
// again by encoding/json.
func encodeRecord(rec Record) ([]byte, error) {
	result := rec.Result
	rec.Result = nil
	payload, err := json.Marshal(rec)
	if err != nil || len(result) == 0 {
		return payload, err
	}
	payload = append(payload[:len(payload)-1], `,"result":`...)
	payload = append(payload, result...)
	return append(payload, '}'), nil
}

// Sync returns once the records Write placed at pos are durable, or
// with the error that failed their batch. Concurrent callers share
// flushes: one leads, writing and fsyncing everything buffered, and
// the rest wait for it.
func (j *Journal) Sync(pos Pos) error { return j.log.Sync(pos) }

// Flush makes every record written so far durable.
func (j *Journal) Flush() error { return j.log.Flush() }

// Close flushes what is buffered and closes the active segment; later
// writes fail with os.ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	return j.log.Close()
}

// Replay scans every segment in order and calls fn for each intact
// record. Damaged frames are counted, skipped and copied into
// quarantine/ for post-mortem (the segment stays, so its intact
// records survive future replays too). Replay may run concurrently
// with appends (it sees a prefix); the service replays before opening
// the queue, where the journal is quiescent.
func (j *Journal) Replay(fn func(Record)) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := j.log.Segments()
	if err != nil {
		return stats, fmt.Errorf("journal: %w", err)
	}
	for _, seg := range segs {
		sc, err := j.log.ScanAll(seg.Path, func(f store.Frame) {
			var rec Record
			if json.Unmarshal(f.Payload, &rec) != nil {
				stats.Corrupt++
				return
			}
			stats.Records++
			fn(rec)
		})
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return stats, fmt.Errorf("journal: reading %s: %w", filepath.Base(seg.Path), err)
		}
		stats.Segments++
		stats.Corrupt += sc.Corrupt
		stats.Torn += sc.Torn
		stats.Quarantined += sc.Quarantined
	}
	return stats, nil
}

// Quarantined reports how many copies of damage the journal's
// quarantine/ holds over the directory's lifetime.
func (j *Journal) Quarantined() (int, error) { return j.log.Quarantined() }
