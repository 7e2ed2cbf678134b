// Package store implements the durable, content-addressed artifact
// store behind crash-safe resumable campaigns: compiled programs,
// region profiles, timing traces and simulation results are written
// through to disk as checksummed, schema-versioned records keyed by a
// canonical hash of (kind, workload, scale, instruction budget,
// machine configuration, code version). The package also holds the
// segment log (Log) that the store and arld's journal keep their
// records in, and the FS seam every byte of both moves through.
//
// Records live in a Log under objects/, one frame each. A record's
// payload is a JSON header line carrying the key, the key's hash, the
// data length and the data's SHA-256, then the data. An in-memory
// index maps each key's hash to the frame that holds it.
//
//   - A Put writes its frame under no lock and waits for the Log's
//     group commit, so concurrent Puts share an fsync. The index names
//     the frame only once it is durable.
//   - Open only creates the directories. The first Get or Put builds
//     the index: it scans every segment in the order the segments were
//     created, reading each frame's header and record header but no
//     data. The last frame for a key wins; what the scan skips (torn
//     tails, damaged frames, record headers whose key does not match
//     their hash) is counted in Stats.Torn. A process that never reads
//     or writes a record never scans. A Get that misses first scans
//     what other Stores appended since, so Stores on one directory
//     share records.
//   - Reads are verified: the frame's checksum, the record's schema,
//     key, key hash, data length and SHA-256. A record that fails any
//     check is quarantined, dropped from the index and reported as a
//     miss, so the caller recomputes instead of failing the run; its
//     fresh Put is a later frame and wins every later scan.
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
	"crypto/sha256"
	"encoding"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// RecordSchema identifies the on-disk record format; bump on any
// incompatible change to the header or payload framing.
const RecordSchema = "arl-store/v3"

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

// header is the first line of a record. KeyHash restates Key.Hash():
// the data checksum does not cover the key, so without it a flipped
// bit in a key field would file the frame under another valid key.
type header struct {
	Schema  string `json:"schema"`
	Key     Key    `json:"key"`
	KeyHash string `json:"key_hash"`
	Len     int    `json:"len"`
	SHA256  string `json:"sha256"`
}

// maxHeader bounds a frame header plus a record header line: a scan
// reads no more of a frame than this.
const maxHeader = 4 << 10

// Stats are the store's monotonic operation counters.
type Stats struct {
	Hits    uint64 // Get found a verified record
	Misses  uint64 // Get found nothing
	Writes  uint64 // Put committed a record
	Corrupt uint64 // records quarantined after failing verification
	Torn    uint64 // what the index build skipped: torn tails, damaged frames and record headers
}

// Store is a content-addressed artifact store rooted at one directory.
type Store struct {
	log *Log // the segments under objects/

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

	// logFn receives one line per notable event (quarantine, resume
	// hit). Held behind an atomic pointer so SetLog is safe at any
	// time, including while other goroutines read and write records —
	// a long-running service attaches and detaches logging without a
	// quiesce.
	logFn atomic.Pointer[func(format string, args ...any)]

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
	n    int64  // frame length
}

// segState is what this Store has read of another writer's segment.
type segState struct {
	scanned int64 // frames before this offset are indexed
	seen    int64 // the segment's size when it was last scanned
}

// SetLog installs fn as the store's event log hook (nil disables
// logging). Safe to call concurrently with any other store operation.
func (s *Store) SetLog(fn func(format string, args ...any)) {
	if fn == nil {
		s.logFn.Store(nil)
		return
	}
	s.logFn.Store(&fn)
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
	l, err := OpenLog(fs, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine"))
	if err != nil {
		return nil, err
	}
	return &Store{log: l, index: map[string]loc{}, segs: map[string]segState{}}, nil
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

func (s *Store) logf(format string, args ...any) {
	if fn := s.logFn.Load(); fn != nil {
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

// Put serializes v and appends it under k as one frame. A later frame
// for k supersedes an earlier one (same key means same inputs, so the
// bytes should agree; superseding also heals a quarantined key).
func (s *Store) Put(k Key, v any) error {
	if err := s.buildIndex(); err != nil {
		return err
	}
	data, err := encodePayload(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", k, err)
	}
	sum := sha256.Sum256(data)
	h := k.Hash()
	hdr, err := json.Marshal(header{
		Schema:  RecordSchema,
		Key:     k,
		KeyHash: h,
		Len:     len(data),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rec := make([]byte, 0, len(hdr)+1+len(data))
	rec = append(append(append(rec, hdr...), '\n'), data...)
	pos := s.log.Write(rec)
	if err := s.log.Sync(pos); err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	path, off := pos.At()
	s.mu.Lock()
	s.index[h] = loc{path: path, off: off, n: frameHeader + int64(len(rec))}
	s.mu.Unlock()
	s.writes.Add(1)
	return nil
}

// Close releases the active segment's file handle. Every frame is
// already durable, so this only frees the descriptor; a Put after
// Close opens a fresh segment.
func (s *Store) Close() error { return s.log.Close() }

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
		// Another Store may have appended the record since.
		if err := s.refresh(false); err != nil {
			return false, fmt.Errorf("store: scanning for %s: %w", k, err)
		}
		if at, ok = s.lookup(h); !ok {
			s.misses.Add(1)
			return false, nil
		}
	}
	frame := make([]byte, at.n)
	n, err := s.log.fs.ReadAt(at.path, frame, at.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("store: reading %s: %w", k, err)
	}
	rec, err := decodeFrame(frame[:n])
	if err == nil {
		err = verify(rec, k, h, v)
	}
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.mu.Lock()
		if s.index[h] == at {
			delete(s.index, h)
		}
		s.mu.Unlock()
		if _, qerr := s.log.quarantine(at.path, at.off, frame[:n]); qerr != nil {
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

// parseHeader parses the header line at the start of rec, a record or
// its first bytes, and returns it with the offset of the data after
// it. ok is false unless the header parses, has this schema, and its
// key hashes to the hash it states.
func parseHeader(rec []byte) (hdr header, data int, ok bool) {
	nl := bytes.IndexByte(rec, '\n')
	if nl < 0 || json.Unmarshal(rec[:nl], &hdr) != nil || hdr.Schema != RecordSchema || hdr.KeyHash != hdr.Key.Hash() {
		return header{}, 0, false
	}
	return hdr, nl + 1, true
}

// verify checks a record against its key k, whose hash is h, and
// decodes its data into v. Every failure wraps ErrCorrupt.
func verify(rec []byte, k Key, h string, v any) error {
	hdr, at, ok := parseHeader(rec)
	switch {
	case !ok:
		return fmt.Errorf("%w: malformed header", ErrCorrupt)
	case hdr.Key != k || hdr.KeyHash != h:
		return fmt.Errorf("%w: record key %v (hash %.12s) does not match requested %v", ErrCorrupt, hdr.Key, hdr.KeyHash, k)
	case len(rec)-at != hdr.Len:
		return fmt.Errorf("%w: data %d bytes, header says %d", ErrCorrupt, len(rec)-at, hdr.Len)
	}
	sum := sha256.Sum256(rec[at:])
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return fmt.Errorf("%w: data checksum mismatch", ErrCorrupt)
	}
	if err := decodePayload(rec[at:], v); err != nil {
		return fmt.Errorf("%w: undecodable data: %v", ErrCorrupt, err)
	}
	return nil
}

// refresh indexes the frames other writers appended since this Store
// last looked: segments it has not seen, and bytes appended to those
// it has. It skips its own segments, whose frames Put indexes.
// Segments are taken in the order they were created, so a record
// recomputed after a restart replaces the one it heals; within a
// segment a later frame replaces an earlier one. A segment that cannot
// be read now is left for the next refresh; only a failure to list the
// directory is returned. build (the index build's scan) counts what
// the scans skipped into Stats.Torn.
func (s *Store) refresh(build bool) error {
	segs, err := s.log.Segments()
	if err != nil {
		return err
	}
	type indexed struct {
		hash string
		at   loc
	}
	for _, seg := range segs {
		info, err := seg.Entry.Info()
		if err != nil || s.log.Owns(seg.Path) {
			continue // removed since the listing, or written by this Store
		}
		s.mu.Lock()
		st := s.segs[seg.Path]
		s.mu.Unlock()
		if st.seen == info.Size() {
			continue
		}
		var found []indexed
		skipped := 0
		sc, err := s.log.Scan(seg.Path, st.scanned, info.Size(), maxHeader-frameHeader, func(f Frame) {
			if hdr, _, ok := parseHeader(f.Payload); ok {
				found = append(found, indexed{hdr.KeyHash, loc{path: seg.Path, off: f.Off, n: f.Size}})
			} else {
				skipped++
			}
		})
		if err != nil {
			s.logf("store: scanning %s: %v", seg.Path, err)
			continue
		}
		if build {
			s.torn.Add(uint64(skipped + sc.Torn + sc.Corrupt))
		}
		s.mu.Lock()
		// A concurrent refresh that indexed these bytes first wins.
		if s.segs[seg.Path] == st {
			for _, f := range found {
				s.index[f.hash] = f.at
			}
			s.segs[seg.Path] = segState{scanned: sc.End, seen: info.Size()}
		}
		s.mu.Unlock()
	}
	return nil
}

// Quarantined reports how many records and damaged stretches have been
// copied to quarantine over the store directory's lifetime (including
// prior processes).
func (s *Store) Quarantined() (int, error) { return s.log.Quarantined() }
