// Package store implements the durable, content-addressed artifact
// store behind crash-safe resumable campaigns: compiled programs,
// region profiles, timing traces and simulation results are written
// through to disk as checksummed, schema-versioned records keyed by a
// canonical hash of (kind, workload, scale, instruction budget,
// machine configuration, code version).
//
// Records live in append-only segment files, objects/seg-<pid>-<ns>.pack.
// Each Store appends to a segment of its own, opened at its first Put;
// a record is one frame: the "arlstore1 " magic, a JSON header line
// carrying the key, the key's hash, the payload length and the payload
// SHA-256, then the payload. An in-memory index maps each key's hash to
// the frame that holds it.
//
// Durability discipline:
//
//   - A Put is one write and one fsync of its frame, and the index
//     names the frame only after the fsync returns. A failed or short
//     write, or a failed fsync, abandons the segment; the next Put
//     opens a fresh one, so a torn frame is only ever a segment's tail.
//   - Open only creates the directories. The first Get or Put builds
//     the index: it scans every segment header by header, never
//     reading a payload, in the order the segments were created. The
//     last frame for a key wins, a torn tail is skipped and counted,
//     and a header that does not parse is skipped up to the next
//     magic. A process that never reads or writes a record never
//     scans. A Get that misses first scans what other processes
//     appended since, so stores on one directory share records.
//   - Reads are verified: every record carries its payload length and
//     SHA-256, and re-states its own key and that key's hash. A scan
//     passes over a header whose key does not match its hash like any
//     damaged header, so a flipped bit in a key never files the frame
//     under another key. A record that fails any check
//     (bad magic, malformed header, wrong key, short payload, checksum
//     mismatch, undecodable payload) is copied into quarantine/ for
//     post-mortem, dropped from the index and reported as a miss, so
//     the caller recomputes instead of failing the run; its fresh Put
//     is a later frame and wins every later scan.
//
// The store is safe for concurrent use by any number of goroutines —
// the worker pool of one campaign, or every client of a long-running
// arld service sharing it as a cache tier. The operation counters are
// atomic, the log hook is swappable at any time (SetLog), and
// concurrent writers of the same key are idempotent: both compute the
// same record, and either frame answers for it.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RecordSchema identifies the on-disk record format; bump on any
// incompatible change to the header or payload framing.
const RecordSchema = "arl-store/v2"

// magic opens every frame; the header JSON follows on the same line,
// then the raw payload bytes.
const magic = "arlstore1 "

// ErrCorrupt marks a record that failed verification. Corrupt records
// are quarantined and surfaced as misses by Get; the sentinel exists
// so tests and tools inspecting records directly can classify the
// failure.
var ErrCorrupt = errors.New("store: corrupt record")

// Key identifies one artifact. Every field participates in the
// canonical hash, so artifacts produced under different scales,
// instruction budgets, machine configurations or code versions never
// alias.
type Key struct {
	Kind     string `json:"kind"`              // artifact kind: "program", "trace", "result", ...
	Workload string `json:"workload"`          // workload name, e.g. "099.go"
	Scale    int    `json:"scale"`             // workload scale (0 = workload default)
	MaxInsts uint64 `json:"max_insts"`         // instruction budget (0 = full run)
	Config   string `json:"config,omitempty"`  // canonical machine-configuration string
	Version  string `json:"version,omitempty"` // producing code version; skew never aliases
}

// Hash returns the canonical content address of the key: the hex
// SHA-256 of its unambiguous field serialization.
func (k Key) Hash() string {
	// The bytes of fmt's "%q|%q|%d|%d|%q|%q" over the fields, which
	// every store on disk was written under.
	b := make([]byte, 0, 64+len(k.Kind)+len(k.Workload)+len(k.Config)+len(k.Version))
	b = strconv.AppendQuote(b, k.Kind)
	b = append(b, '|')
	b = strconv.AppendQuote(b, k.Workload)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.Scale), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, k.MaxInsts, 10)
	b = append(b, '|')
	b = strconv.AppendQuote(b, k.Config)
	b = append(b, '|')
	b = strconv.AppendQuote(b, k.Version)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s@%d n=%d %s", k.Kind, k.Workload, k.Scale, k.MaxInsts, k.Config)
}

// header is the self-describing first line of a frame. KeyHash
// restates Key.Hash(): the payload checksum does not cover the key, so
// without it a flipped bit in a key field would file the frame under
// another valid key.
type header struct {
	Schema  string `json:"schema"`
	Key     Key    `json:"key"`
	KeyHash string `json:"key_hash"`
	Len     int    `json:"len"`
	SHA256  string `json:"sha256"`
}

// Stats are the store's monotonic operation counters.
type Stats struct {
	Hits    uint64 // Get found a verified record
	Misses  uint64 // Get found nothing
	Writes  uint64 // Put committed a record
	Corrupt uint64 // records quarantined after failing verification
	Torn    uint64 // stretches the index build skipped: torn tails and unparsable headers
}

// Store is a content-addressed artifact store rooted at one directory.
type Store struct {
	root string
	fs   FS

	// amu orders frames in the active segment and guards the three
	// fields below; seg is nil until the first Put, after a failed
	// write abandons the segment and after Close. Every frame is synced
	// before its Put returns, so closing the segment flushes nothing.
	amu     sync.Mutex
	seg     File
	segPath string
	segSize int64

	// built is set once the index is built, on the first Get or Put
	// whose build succeeds; buildMu makes the others wait for it. A
	// failed build is not kept: the next Get or Put tries again.
	buildMu sync.Mutex
	built   atomic.Bool

	// mu guards the index and the scan state. It is never held across
	// I/O.
	mu    sync.Mutex
	index map[string]loc      // key hash -> the frame that holds it
	segs  map[string]segState // segment path -> what scans have read

	// log receives one line per notable event (quarantine, resume
	// hit). Held behind an atomic pointer so SetLog is safe at any
	// time, including while other goroutines read and write records —
	// a long-running service attaches and detaches logging without a
	// quiesce.
	log atomic.Pointer[func(format string, args ...any)]

	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64
	torn    atomic.Uint64
}

// loc is where one frame sits.
type loc struct {
	path string // segment file
	off  int64  // first byte of the frame
	n    int64  // frame length: header line plus payload
}

// segState is what this Store has read of one segment.
type segState struct {
	scanned int64 // frames before this offset are indexed
	seen    int64 // the segment's size when it was last scanned
	own     bool  // this Store appends to it; Put indexes its frames
}

// SetLog installs fn as the store's event log hook (nil disables
// logging). Safe to call concurrently with any other store operation.
func (s *Store) SetLog(fn func(format string, args ...any)) {
	if fn == nil {
		s.log.Store(nil)
		return
	}
	s.log.Store(&fn)
}

// Open opens (creating as needed) the store rooted at dir. It reads
// no segment: the first Get or Put indexes the segments earlier
// writers left, and the first Put creates this Store's own.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, OS())
}

// OpenFS is Open over an explicit filesystem seam — the entry point
// the storage-fault chaos harness uses to interpose faultfs between
// the store and the disk. It only creates the directories.
func OpenFS(dir string, fs FS) (*Store, error) {
	s := &Store{root: dir, fs: fs, index: map[string]loc{}, segs: map[string]segState{}}
	for _, sub := range []string{s.objectsDir(), s.quarantineDir()} {
		if err := fs.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
}

// buildIndex indexes the segments on disk on the first Get or Put;
// every caller waits for it. A Put must: a scan of an older segment
// that finished after the Put indexed its frame would replace the
// newer frame's entry. A build that fails to list the segments
// returns the error to its caller and leaves the next one to build.
func (s *Store) buildIndex() error {
	if s.built.Load() {
		return nil
	}
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if s.built.Load() {
		return nil
	}
	//arlvet:allow lockheld buildMu exists to hold every Get and Put until the first index build is done, as a sync.Once would; it guards nothing else, and the index lock is never held across I/O
	if err := s.refresh(true); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.built.Store(true)
	return nil
}

func (s *Store) objectsDir() string    { return filepath.Join(s.root, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

func (s *Store) logf(format string, args ...any) {
	if fn := s.log.Load(); fn != nil {
		(*fn)(format, args...)
	}
}

// Stats reports the operation counters accumulated so far. It does
// not build the index: Torn stays 0 until the first Get or Put.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
		Torn:    s.torn.Load(),
	}
}

// Publish copies the operation counters into reg. The harness_ prefix
// marks them as run-provenance metrics: they describe how this run
// obtained its results (recomputed vs resumed), not what the results
// are, so a resumed and an uninterrupted campaign legitimately differ
// here and nowhere else.
func (s *Store) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := s.Stats()
	reg.Counter("harness_store_hits_total", "store reads satisfied by a verified record", nil).Add(st.Hits)
	reg.Counter("harness_store_misses_total", "store reads that found no record", nil).Add(st.Misses)
	reg.Counter("harness_store_writes_total", "records committed to the store", nil).Add(st.Writes)
	reg.Counter("harness_store_corrupt_total", "records quarantined after failing verification", nil).Add(st.Corrupt)
}

// encodePayload serializes v: types providing their own binary codec
// (e.g. cpu.Trace's packed record format) use it; everything else
// goes through gob.
func encodePayload(v any) ([]byte, error) {
	if m, ok := v.(encoding.BinaryMarshaler); ok {
		return m.MarshalBinary()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePayload(data []byte, v any) error {
	if u, ok := v.(encoding.BinaryUnmarshaler); ok {
		return u.UnmarshalBinary(data)
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// segExt names segment files; anything else under objects/ (such as
// the shard directories of the file-per-record layout) is ignored.
const segExt = ".pack"

// lastStamp keeps segment stamps strictly increasing within the
// process, so two Stores on one directory never share a segment.
var lastStamp atomic.Int64

// segmentName names a fresh segment after the writing process and a
// nanosecond stamp.
func segmentName() string {
	now := time.Now().UnixNano()
	for {
		last := lastStamp.Load()
		now = max(now, last+1)
		if lastStamp.CompareAndSwap(last, now) {
			return fmt.Sprintf("seg-%d-%d%s", os.Getpid(), now, segExt)
		}
	}
}

// segmentStamp is the creation stamp segmentName put in name, or 0.
func segmentStamp(name string) int64 {
	base := strings.TrimSuffix(name, segExt)
	n, _ := strconv.ParseInt(base[strings.LastIndexByte(base, '-')+1:], 10, 64)
	return n
}

// Put serializes v and appends it under k as one frame. A later frame
// for k supersedes an earlier one (same key means same inputs, so the
// bytes should agree; superseding also heals a quarantined key).
func (s *Store) Put(k Key, v any) error {
	if err := s.buildIndex(); err != nil {
		return err
	}
	payload, err := encodePayload(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", k, err)
	}
	sum := sha256.Sum256(payload)
	h := k.Hash()
	hdr, err := json.Marshal(header{
		Schema:  RecordSchema,
		Key:     k,
		KeyHash: h,
		Len:     len(payload),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rec := make([]byte, 0, len(magic)+len(hdr)+1+len(payload))
	rec = append(rec, magic...)
	rec = append(rec, hdr...)
	rec = append(rec, '\n')
	rec = append(rec, payload...)
	s.amu.Lock()
	//arlvet:allow lockheld frames must enter the segment one at a time at known offsets, and a failed write or fsync must abandon the segment before another frame lands behind it; amu guards only the active segment, and the index lock is never held across I/O
	at, err := s.appendLocked(rec)
	s.amu.Unlock()
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	s.mu.Lock()
	s.index[h] = at
	s.mu.Unlock()
	s.writes.Add(1)
	return nil
}

// appendLocked writes rec to the end of the active segment and syncs
// it, opening a fresh segment first when there is none. The caller
// holds amu. A failed write or sync abandons the segment.
func (s *Store) appendLocked(rec []byte) (loc, error) {
	if s.seg == nil {
		path := filepath.Join(s.objectsDir(), segmentName())
		s.mu.Lock()
		s.segs[path] = segState{own: true}
		s.mu.Unlock()
		f, err := s.fs.OpenAppend(path, 0o644)
		if err != nil {
			return loc{}, err
		}
		s.seg, s.segPath, s.segSize = f, path, 0
	}
	_, err := s.seg.Write(rec)
	if err == nil {
		err = s.seg.Sync()
	}
	if err != nil {
		s.seg.Close()
		s.seg = nil
		return loc{}, err
	}
	at := loc{path: s.segPath, off: s.segSize, n: int64(len(rec))}
	s.segSize += at.n
	return at, nil
}

// Close releases the active segment's file handle. Every frame is
// already durable, so this only frees the descriptor; a Put after
// Close opens a fresh segment.
func (s *Store) Close() error {
	s.amu.Lock()
	defer s.amu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// Get looks k up and decodes the stored payload into v (a pointer).
// It reports whether a verified record was found. A record that fails
// verification is quarantined and reported as a miss — the caller
// recomputes — so corruption degrades to a cache miss, never a failed
// run. The returned error is reserved for environmental problems
// (I/O, permissions), not data problems.
func (s *Store) Get(k Key, v any) (bool, error) {
	if err := s.buildIndex(); err != nil {
		return false, err
	}
	h := k.Hash()
	at, ok := s.lookup(h)
	if !ok {
		// Another process may have appended the record since.
		if err := s.refresh(false); err != nil {
			return false, fmt.Errorf("store: scanning for %s: %w", k, err)
		}
		if at, ok = s.lookup(h); !ok {
			s.misses.Add(1)
			return false, nil
		}
	}
	data := make([]byte, at.n)
	n, err := s.fs.ReadAt(at.path, data, at.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("store: reading %s: %w", k, err)
	}
	if err := verify(data[:n], k, h, v); err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.mu.Lock()
		if s.index[h] == at {
			delete(s.index, h)
		}
		s.mu.Unlock()
		if qerr := s.quarantine(h, data[:n]); qerr != nil {
			return false, fmt.Errorf("store: quarantining %s: %v (after: %w)", k, qerr, err)
		}
		s.logf("store: quarantined %s: %v", k, err)
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

func (s *Store) lookup(h string) (loc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.index[h]
	return at, ok
}

// verify checks a raw record against its key k, whose hash is h, and
// decodes the payload into v. Every failure wraps ErrCorrupt.
func verify(data []byte, k Key, h string, v any) error {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return fmt.Errorf("%w: unterminated header", ErrCorrupt)
	}
	var hdr header
	if err := json.Unmarshal(rest[:nl], &hdr); err != nil {
		return fmt.Errorf("%w: malformed header: %v", ErrCorrupt, err)
	}
	if hdr.Schema != RecordSchema {
		return fmt.Errorf("%w: schema %q, want %q", ErrCorrupt, hdr.Schema, RecordSchema)
	}
	if hdr.Key != k || hdr.KeyHash != h {
		return fmt.Errorf("%w: record key %v (hash %.12s) does not match requested %v", ErrCorrupt, hdr.Key, hdr.KeyHash, k)
	}
	payload := rest[nl+1:]
	if len(payload) != hdr.Len {
		return fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	if err := decodePayload(payload, v); err != nil {
		return fmt.Errorf("%w: undecodable payload: %v", ErrCorrupt, err)
	}
	return nil
}

// quarantine copies a failed frame aside for post-mortem instead of
// losing the evidence; a numbered suffix keeps repeated quarantines of
// one key from clobbering each other.
func (s *Store) quarantine(name string, frame []byte) error {
	dst := filepath.Join(s.quarantineDir(), name)
	for i := 1; ; i++ {
		if _, err := s.fs.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, i))
	}
	f, err := s.fs.OpenAppend(dst, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(frame)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// refresh indexes the frames written since this Store last looked:
// segments it has not seen, and bytes appended to those it has. It
// skips its own segments, whose frames Put indexes. Segments are
// taken in the order of the creation stamp in their names, not of the
// pid before it, so a record recomputed after a restart replaces the
// one it heals; within a segment a later frame replaces an earlier
// one. A segment that cannot be read now is left for the next
// refresh; only a failure to list the directory is returned. build
// (the index build's scan) counts the stretches the scans skipped into
// Stats.Torn.
func (s *Store) refresh(build bool) error {
	ents, err := s.fs.ReadDir(s.objectsDir())
	if err != nil {
		return err
	}
	slices.SortStableFunc(ents, func(a, b os.DirEntry) int {
		return cmp.Compare(segmentStamp(a.Name()), segmentStamp(b.Name()))
	})
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // removed since the listing
		}
		path := filepath.Join(s.objectsDir(), e.Name())
		s.mu.Lock()
		st := s.segs[path]
		s.mu.Unlock()
		if st.own || st.seen == info.Size() {
			continue
		}
		sc, err := scanSegment(s.fs, path, st.scanned, info.Size())
		if err != nil {
			s.logf("store: scanning %s: %v", path, err)
			continue
		}
		if build {
			s.torn.Add(uint64(sc.skipped))
		}
		s.mu.Lock()
		// A concurrent refresh that indexed these bytes first wins.
		if s.segs[path] == st {
			for _, f := range sc.frames {
				s.index[f.hash] = f.at
			}
			s.segs[path] = segState{scanned: sc.end, seen: info.Size()}
		}
		s.mu.Unlock()
	}
	return nil
}

// Quarantined reports how many records have been moved to quarantine
// over the store directory's lifetime (including prior processes).
func (s *Store) Quarantined() (int, error) {
	ents, err := s.fs.ReadDir(s.quarantineDir())
	return len(ents), err
}
