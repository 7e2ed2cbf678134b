// Package journal is arld's write-ahead job journal: the durability
// layer that makes the campaign service crash-restartable. Every
// accepted job and every unit state transition is written as a
// checksummed record as the in-memory state changes, and made durable
// before any effect of the change leaves the process, so that on
// restart the service replays the journal and reconstructs exactly the
// jobs, unit states, results and event streams (with their sequence
// numbers) that clients had already observed; incomplete units are
// re-enqueued and recompute through the artifact-store memo.
//
// On-disk format (schema "arl-journal/v1"): a directory of append-only
// segment files seg-NNNNNNNN.wal. Each process opens a fresh segment —
// never appending to a predecessor's — so a crash can tear at most the
// tail of the newest segment a dead process was writing. A segment
// opens with a header line
//
//	arljournal1 {"schema":"arl-journal/v1","segment":N}
//
// followed by one record per line:
//
//	r <crc32c-hex> <len> <json>
//
// where the checksum and length cover the JSON bytes. Replay verifies
// every line: a record that fails framing, length or checksum is
// skipped (and the segment copied into quarantine/ for post-mortem)
// while every intact record — before or after the damage — is
// recovered; newline framing makes the scan self-resynchronizing. A
// torn final line of the newest segment is the expected signature of a
// crash mid-append and is counted separately from corruption.
//
// Writing is split in two (group commit, DeWitt et al., SIGMOD 1984).
// Write frames records into an in-memory buffer and returns their
// position; it does no I/O, so callers may hold their own locks across
// it and journal order stays the order their events happen in. Sync
// waits until a position is durable: the first waiter to find no flush
// running becomes the leader, takes the whole buffer and writes and
// fsyncs it as one batch with no lock held, while later waiters sleep
// until a flush covers their position. Only the leader touches the
// segment file, so its calls never overlap.
//
// All I/O goes through the store's FS seam, so the storage-fault chaos
// harness (internal/store/faultfs) can fail appends, fsyncs and reads
// at exact operation indices. A failed batch fails every position it
// held and no other. A failed or short write leaves the active segment
// dirty; the next batch re-synchronizes by starting on a fresh line,
// sacrificing at most the records the fault already lost.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/store"
)

// Schema identifies the on-disk journal format; bump on any
// incompatible change to the segment header or record framing.
const Schema = "arl-journal/v1"

// segment header magic; the header JSON follows on the same line.
const magic = "arljournal1 "

// recPrefix opens every record line.
const recPrefix = "r "

// DefaultSegmentCap is the rotation threshold: an append that would
// grow the active segment past this many bytes rotates to a fresh
// segment first.
const DefaultSegmentCap = 4 << 20

// ErrCorrupt marks a journal line that failed verification; replay
// counts and skips such lines rather than surfacing this error, but
// tools inspecting segments directly can classify with it.
var ErrCorrupt = errors.New("journal: corrupt record")

// crcTable is the Castagnoli polynomial — hardware-accelerated and the
// standard choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
	Corrupt     int // lines that failed framing/length/checksum
	Torn        int // torn tails (crash mid-append signatures)
	Quarantined int // segments copied to quarantine/ this pass
}

// Pos is a position in the journal: the batch a Write's records are
// flushed in. The zero Pos precedes every record and is always
// durable. A batch's outcome lives as long as some Pos refers to it,
// so the journal keeps no record of past batches.
type Pos struct{ b *batch }

// batch is the outcome of one flush. Its fields are guarded by the
// journal's mu.
type batch struct {
	done bool  // flushed, well or not
	err  error // why its write or fsync failed
}

// Journal is an open write-ahead journal rooted at one directory. All
// methods are safe for concurrent use.
type Journal struct {
	fs  store.FS
	dir string

	mu       sync.Mutex
	flushed  *sync.Cond  // on mu: broadcast when a flush ends
	buf      []byte      // framed records of batch cur
	bufRecs  int         // records in buf
	cur      *batch      // the batch buf fills
	flushing *batch      // the batch a leader is writing outside mu, or nil
	onFail   func(error) // told of each failed batch, or nil
	segCap   int         // rotation threshold; 0 = DefaultSegmentCap
	closed   bool
	appends  int

	// The segment, touched only by a flush's leader (and by OpenFS and
	// Close, when no flush runs).
	active store.File
	size   int
	seg    int  // active segment number
	dirty  bool // a failed write may have left a partial line
}

// Open opens (creating as needed) the journal at dir and starts a
// fresh active segment.
func Open(dir string) (*Journal, error) {
	return OpenFS(store.OS(), dir)
}

// OpenFS is Open over an explicit filesystem seam.
func OpenFS(fs store.FS, dir string) (*Journal, error) {
	j := &Journal{fs: fs, dir: dir, cur: &batch{}}
	j.flushed = sync.NewCond(&j.mu)
	for _, sub := range []string{dir, filepath.Join(dir, "quarantine")} {
		if err := fs.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	segs, err := j.segments()
	if err != nil {
		return nil, err
	}
	next := 0
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	if err := j.rotate(next); err != nil {
		return nil, err
	}
	return j, nil
}

// SetSegmentCap overrides the rotation threshold in bytes (<= 0
// restores DefaultSegmentCap). Tests use it to cross rotation
// boundaries without writing megabytes.
func (j *Journal) SetSegmentCap(n int) {
	j.mu.Lock()
	j.segCap = n
	j.mu.Unlock()
}

// OnFailure sets fn to be told, once, of each batch whose write or
// fsync fails. It runs in the flush's leader with no journal lock held.
// Sync reports the same error to every waiter on the batch; fn is the
// place to count it.
func (j *Journal) OnFailure(fn func(error)) {
	j.mu.Lock()
	j.onFail = fn
	j.mu.Unlock()
}

// Appends reports how many records this process has made durable.
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

func segName(n int) string { return fmt.Sprintf("seg-%08d.wal", n) }

// segments lists the existing segment numbers in ascending order. A
// file counts only when its name is exactly segName(n): a copy beside
// a segment, such as seg-00000001.wal.bak, is not replayed as it.
func (j *Journal) segments() ([]int, error) {
	entries, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		if n, ok := segNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// segNumber is the segment number name spells, when name is segName
// of it.
func segNumber(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
	return n, err == nil && segName(n) == name
}

// rotate closes the active segment (if any) and opens segment n with
// its header line. Callers are a flush's leader or OpenFS.
func (j *Journal) rotate(n int) error {
	if j.active != nil {
		j.active.Close()
		j.active = nil
	}
	f, err := j.fs.OpenAppend(filepath.Join(j.dir, segName(n)), 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening segment %d: %w", n, err)
	}
	hdr, err := json.Marshal(struct {
		Schema  string `json:"schema"`
		Segment int    `json:"segment"`
	}{Schema, n})
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(append(append([]byte(magic), hdr...), '\n')); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing segment %d header: %w", n, err)
	}
	j.active, j.seg, j.size, j.dirty = f, n, 0, false
	return nil
}

// Write frames and checksums records and buffers them for the next
// flush, returning the position Sync waits on. It does no I/O. Records
// of one Write land in one batch, so records that must become durable
// together (a job's last unit event and its end record) do. Write
// fails only on a closed journal or an unencodable record.
//
// A record's Result must be compact JSON, as json.Marshal writes it
// or CompactResult makes it: Write splices it in as the record's last
// field without validating it again (see encodeRecord), and refuses
// one that holds a newline, which would break the line framing.
func (j *Journal) Write(recs ...Record) (Pos, error) {
	var lines []byte
	for _, rec := range recs {
		payload, err := encodeRecord(rec)
		if err != nil {
			return Pos{}, fmt.Errorf("journal: encoding record: %w", err)
		}
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, crcTable))
		lines = append(lines, recPrefix...)
		lines = hex.AppendEncode(lines, sum[:])
		lines = append(lines, ' ')
		lines = strconv.AppendInt(lines, int64(len(payload)), 10)
		lines = append(lines, ' ')
		lines = append(lines, payload...)
		lines = append(lines, '\n')
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Pos{}, fmt.Errorf("journal: appending: %w", os.ErrClosed)
	}
	if len(recs) == 0 {
		return Pos{}, nil
	}
	j.buf = append(j.buf, lines...)
	j.bufRecs += len(recs)
	return Pos{j.cur}, nil
}

// CompactResult validates a result that comes from outside the
// process and returns it in the form a Record's Result must take:
// compact JSON, which holds no newline. A result json.Marshal wrote,
// or one replayed from a journal line, is compact already.
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
	if bytes.IndexByte(result, '\n') >= 0 {
		return nil, errors.New("result holds a newline")
	}
	payload = append(payload[:len(payload)-1], `,"result":`...)
	payload = append(payload, result...)
	return append(payload, '}'), nil
}

// Sync returns once the records Write placed at pos are durable, or
// with the error that failed their batch. Concurrent callers share
// flushes: one leads, writing and fsyncing everything buffered, and
// the rest wait for it.
func (j *Journal) Sync(pos Pos) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked(pos)
}

// Flush makes every record written so far durable.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked(j.pendingLocked())
}

// pendingLocked is the position covering every record written so far:
// the buffered batch, else the batch in flight, else the zero Pos.
func (j *Journal) pendingLocked() Pos {
	switch {
	case len(j.buf) > 0:
		return Pos{j.cur}
	case j.flushing != nil:
		return Pos{j.flushing}
	}
	return Pos{}
}

// syncLocked waits for pos's batch to be flushed, leading the flush
// when none runs: a batch not yet flushed is then the one buf fills.
func (j *Journal) syncLocked(pos Pos) error {
	if pos.b == nil {
		return nil
	}
	for !pos.b.done {
		if j.flushing != nil {
			j.flushed.Wait()
			continue
		}
		j.flushLocked()
	}
	return pos.b.err
}

// flushLocked leads one flush: it takes the whole buffer as batch
// j.cur and commits it with j.mu released. Callers hold j.mu and
// found no flush running.
func (j *Journal) flushLocked() {
	b, lines, recs, segCap, onFail := j.cur, j.buf, j.bufRecs, j.segCap, j.onFail
	j.cur = &batch{}
	j.buf, j.bufRecs = nil, 0
	j.flushing = b
	j.mu.Unlock()
	err := j.commit(lines, segCap)
	if err != nil && onFail != nil {
		onFail(err)
	}
	j.mu.Lock()
	j.flushing = nil
	b.done, b.err = true, err
	if err == nil {
		j.appends += recs
	}
	j.flushed.Broadcast()
}

// commit writes one batch to the active segment with one write and
// fsyncs it, rotating first when the segment has grown past segCap.
// Only a flush's leader calls it.
func (j *Journal) commit(lines []byte, segCap int) error {
	if segCap <= 0 {
		segCap = DefaultSegmentCap
	}
	if j.size > segCap {
		if err := j.rotate(j.seg + 1); err != nil {
			return err
		}
	}
	if j.dirty {
		// A previous write failed partway; terminate its debris so
		// these records start on a fresh line. Best effort: if this
		// write fails too the journal just stays dirty.
		if _, err := j.active.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("journal: resynchronizing after failed append: %w", err)
		}
		j.dirty = false
	}
	if _, err := j.active.Write(lines); err != nil {
		j.dirty = true
		return fmt.Errorf("journal: appending: %w", err)
	}
	j.size += len(lines)
	if err := j.active.Sync(); err != nil {
		// The bytes are written but their durability is unknown — the
		// fsyncgate lesson says treat the handle as suspect. The line
		// framing is intact, so no resync is needed.
		return fmt.Errorf("journal: syncing: %w", err)
	}
	return nil
}

// Close flushes what is buffered and closes the active segment; later
// writes fail with os.ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	err := j.syncLocked(j.pendingLocked())
	if j.active == nil {
		return err
	}
	err = errors.Join(err, j.active.Close())
	j.active = nil
	return err
}

// Replay scans every segment in order and calls fn for each intact
// record. Damaged lines are counted and skipped; a segment holding any
// is copied into quarantine/ for post-mortem (the original stays, so
// its intact records survive future replays too). A transient read
// error on a segment is retried once before the segment is skipped.
// Replay may run concurrently with appends (it sees a prefix); the
// service replays before opening the queue, where the journal is
// quiescent.
func (j *Journal) Replay(fn func(Record)) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := j.segments()
	if err != nil {
		return stats, err
	}
	for _, n := range segs {
		path := filepath.Join(j.dir, segName(n))
		data, err := j.fs.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			// One retry: EIO-class read trouble is often transient
			// (and the chaos harness injects exactly one fault per
			// address). A journal segment is too precious to abandon
			// on the first error.
			data, err = j.fs.ReadFile(path)
		}
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return stats, fmt.Errorf("journal: reading segment %d: %w", n, err)
		}
		stats.Segments++
		corrupt, torn := replaySegment(data, fn, &stats)
		stats.Corrupt += corrupt
		stats.Torn += torn
		if corrupt > 0 {
			if captured, err := j.quarantine(path); err == nil && captured {
				stats.Quarantined++
			}
		}
	}
	return stats, nil
}

// replaySegment scans one segment's bytes. The segment this process
// opened holds only its header, so scanning it too is harmless.
func replaySegment(data []byte, fn func(Record), stats *ReplayStats) (corrupt, torn int) {
	// A well-formed segment ends in '\n'; anything after the last
	// newline is a torn tail (crash mid-append). Either way Split's
	// last element is not a whole line: "" after a final newline, or
	// the torn tail.
	if len(data) > 0 && data[len(data)-1] != '\n' {
		torn = 1
	}
	lines := bytes.Split(data, []byte{'\n'})
	for _, line := range lines[:len(lines)-1] {
		if len(line) == 0 || bytes.HasPrefix(line, []byte(magic)) {
			continue // resync newline after a failed append, or the segment header
		}
		rec, err := parseLine(line)
		if err != nil {
			corrupt++
			continue
		}
		stats.Records++
		fn(rec)
	}
	return corrupt, torn
}

// parseLine verifies one "r <crc> <len> <json>" line.
func parseLine(line []byte) (Record, error) {
	var rec Record
	rest, ok := bytes.CutPrefix(line, []byte(recPrefix))
	if !ok {
		return rec, fmt.Errorf("%w: bad record prefix", ErrCorrupt)
	}
	crcText, rest, ok := bytes.Cut(rest, []byte{' '})
	lenText, payload, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok || !ok2 {
		return rec, fmt.Errorf("%w: unframed record", ErrCorrupt)
	}
	if len(crcText) != 8 {
		return rec, fmt.Errorf("%w: malformed checksum %q", ErrCorrupt, crcText)
	}
	sum, err := strconv.ParseUint(string(crcText), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("%w: malformed checksum: %v", ErrCorrupt, err)
	}
	n, err := strconv.Atoi(string(lenText))
	if err != nil {
		return rec, fmt.Errorf("%w: malformed length: %v", ErrCorrupt, err)
	}
	if len(payload) != n {
		return rec, fmt.Errorf("%w: payload %d bytes, frame says %d", ErrCorrupt, len(payload), n)
	}
	if crc32.Checksum(payload, crcTable) != uint32(sum) {
		return rec, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// quarantine copies a damaged segment aside for post-mortem. The
// original stays in place — its intact records are still live state —
// so repeated replays of the same damage reuse the existing copy;
// captured reports whether this call made a new one.
func (j *Journal) quarantine(path string) (captured bool, err error) {
	dst := filepath.Join(j.dir, "quarantine", filepath.Base(path))
	if _, err := j.fs.Stat(dst); err == nil {
		return false, nil // already captured
	}
	data, err := j.fs.ReadFile(path)
	if err != nil {
		return false, err
	}
	if err := store.WriteFileAtomicFS(j.fs, dst, data, 0o644); err != nil {
		return false, err
	}
	return true, nil
}

// Quarantined reports how many damaged segments have been captured
// over the journal directory's lifetime.
func (j *Journal) Quarantined() (int, error) {
	entries, err := j.fs.ReadDir(filepath.Join(j.dir, "quarantine"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") {
			n++
		}
	}
	return n, nil
}
