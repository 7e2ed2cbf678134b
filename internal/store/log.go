package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Log is an append-only log of checksummed frames kept in the segment
// files of one directory. The artifact store and arld's write-ahead
// journal each keep their records in one.
//
// Segments are named seg-NNNNNNNN.log. A Log never appends to a
// segment it did not create: its first flush, and the first after a
// rotation or a failure, creates the segment numbered one above every
// segment in the directory, exclusively, so two Logs on one directory
// (two Stores, or two processes) never share one. Segment numbers, not
// the wall clock, order the segments for a reader.
//
// A frame is a 16-byte header, then the payload. The header holds the
// magic, the payload length, the payload's CRC-32C, and the CRC-32C of
// those 12 bytes, so a scan that reads no payload never trusts a
// damaged length.
//
// Writing is split in two (group commit, DeWitt et al., SIGMOD 1984).
// Write frames payloads into an in-memory buffer and returns their
// position; it does no I/O, so callers may hold their own locks across
// it and the log's order stays the order their events happen in. Sync
// waits until a position is durable: the first waiter to find no flush
// running becomes the leader, takes the whole buffer and writes and
// fsyncs it as one batch with no lock held, while later waiters sleep
// until a flush covers their position. Only the leader touches the
// segment file, so its calls never overlap.
//
// A failed write or fsync fails every position of its batch and no
// other, and abandons the segment: the next flush starts a fresh one.
// So a torn frame is only ever the tail of a segment.
//
// A damaged frame or unframed stretch that ScanAll or a reader finds is
// copied to the quarantine directory as <segment>@<offset>. Finding the
// same damage again finds that copy and makes no second one.
type Log struct {
	fs   FS
	dir  string
	qdir string

	mu       sync.Mutex
	flushed  *sync.Cond // on mu: broadcast when a flush ends
	buf      []byte     // frames of batch cur
	bufN     int        // frames in buf
	cur      *batch     // the batch buf fills
	flushing *batch     // the batch a leader is writing outside mu, or nil
	onFail   func(error)
	segCap   int64 // rotation threshold in bytes; 0 never rotates
	frames   int   // frames made durable
	own      map[string]bool

	// The active segment, touched only by a flush's leader (and by
	// Close, when no flush runs).
	active File
	path   string
	size   int64
}

// Frame header layout.
const (
	frameMagic  = "\xd5arl" // 0xd5 0x61 is never valid UTF-8, so JSON text holds no magic
	frameHeader = 16
)

// scanBlock is how many bytes a scan reads at a time while it looks
// for the next magic past damage.
const scanBlock = 4 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerOf is payload's frame header.
func headerOf(payload []byte) (h [frameHeader]byte) {
	copy(h[:], frameMagic)
	binary.LittleEndian.PutUint32(h[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[8:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	return h
}

// payloadLen is the payload length a frame header at the start of b
// states, when b starts with a sound header.
func payloadLen(b []byte) (int64, bool) {
	if len(b) < frameHeader || string(b[:4]) != frameMagic ||
		crc32.Checksum(b[:12], castagnoli) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint32(b[4:])), true
}

// payloadSound reports whether payload matches the checksum in the
// frame header h.
func payloadSound(h, payload []byte) bool {
	return crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(h[8:])
}

// decodeFrame checks one whole frame and returns its payload. Every
// failure wraps ErrCorrupt.
func decodeFrame(b []byte) ([]byte, error) {
	n, ok := payloadLen(b)
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: bad frame header", ErrCorrupt)
	case int64(len(b)) != frameHeader+n:
		return nil, fmt.Errorf("%w: frame of %d bytes, header says %d", ErrCorrupt, len(b), frameHeader+n)
	case !payloadSound(b, b[frameHeader:]):
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return b[frameHeader:], nil
}

// OpenLog opens the log in dir, which it creates with quarantine, the
// directory damaged bytes are copied to. It reads nothing: the first
// flush creates the Log's segment.
func OpenLog(fs FS, dir, quarantine string) (*Log, error) {
	for _, d := range []string{dir, quarantine} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	l := &Log{fs: fs, dir: dir, qdir: quarantine, cur: &batch{}, own: map[string]bool{}}
	l.flushed = sync.NewCond(&l.mu)
	return l, nil
}

// SetSegmentCap sets the rotation threshold: a flush that finds the
// active segment past n bytes starts a fresh one first. n <= 0 never
// rotates.
func (l *Log) SetSegmentCap(n int64) {
	l.mu.Lock()
	l.segCap = max(n, 0)
	l.mu.Unlock()
}

// OnFailure sets fn to be told, once, of each batch whose write or
// fsync fails. It runs in the flush's leader with no log lock held.
func (l *Log) OnFailure(fn func(error)) {
	l.mu.Lock()
	l.onFail = fn
	l.mu.Unlock()
}

// Frames reports how many frames this Log has made durable.
func (l *Log) Frames() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames
}

// Owns reports whether this Log created the segment at path.
func (l *Log) Owns(path string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.own[path]
}

// Segment is one segment file of a log.
type Segment struct {
	Path  string
	Entry os.DirEntry // its directory entry, for its size
	n     int
}

func segName(n int) string { return fmt.Sprintf("seg-%08d.log", n) }

// segNumber is the number name spells, when name is segName of it: a
// copy beside a segment, such as seg-00000001.log.bak, is not one.
func segNumber(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	s, ok2 := strings.CutSuffix(s, ".log")
	n, err := strconv.Atoi(s)
	return n, ok && ok2 && err == nil && segName(n) == name
}

// Segments lists the log's segments in the order they were created.
func (l *Log) Segments() ([]Segment, error) {
	ents, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, e := range ents {
		if n, ok := segNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, Segment{Path: filepath.Join(l.dir, e.Name()), Entry: e, n: n})
		}
	}
	slices.SortFunc(segs, func(a, b Segment) int { return a.n - b.n })
	return segs, nil
}

// Pos is a position in the log: where the frames of one Write go. The
// zero Pos precedes every frame and is always durable. A batch's
// outcome lives as long as some Pos refers to it, so the log keeps no
// record of past batches.
type Pos struct {
	b   *batch
	off int64 // where the Write's first frame starts in its batch
}

// batch is the outcome of one flush. Its fields are guarded by the
// log's mu.
type batch struct {
	done bool   // flushed, well or not
	err  error  // why its write or fsync failed
	path string // the segment it went to
	off  int64  // where in that segment it starts
}

// At reports the segment and offset of the first frame of the Write
// that returned p. It is valid once Sync(p) has returned nil.
func (p Pos) At() (path string, off int64) { return p.b.path, p.b.off + p.off }

// Write frames payloads and buffers them for the next flush, returning
// the position Sync waits on. It does no I/O. The frames of one Write
// land in one batch, consecutively, so payloads that must become
// durable together do.
func (l *Log) Write(payloads ...[]byte) Pos {
	hdrs := make([][frameHeader]byte, len(payloads))
	for i, p := range payloads {
		if len(p) > math.MaxUint32 {
			return Pos{b: &batch{done: true, err: fmt.Errorf("store: a %d-byte payload overflows its frame", len(p))}}
		}
		hdrs[i] = headerOf(p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(payloads) == 0 {
		return Pos{}
	}
	pos := Pos{b: l.cur, off: int64(len(l.buf))}
	for i, p := range payloads {
		l.buf = append(append(l.buf, hdrs[i][:]...), p...)
	}
	l.bufN += len(payloads)
	return pos
}

// Sync returns once the frames Write placed at pos are durable, or
// with the error that failed their batch. Concurrent callers share
// flushes: one leads, writing and fsyncing everything buffered, and
// the rest wait for it.
func (l *Log) Sync(pos Pos) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(pos)
}

// Flush makes every frame written so far durable.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.pendingLocked())
}

// pendingLocked is the position covering every frame written so far:
// the buffered batch, else the batch in flight, else the zero Pos.
func (l *Log) pendingLocked() Pos {
	switch {
	case len(l.buf) > 0:
		return Pos{b: l.cur}
	case l.flushing != nil:
		return Pos{b: l.flushing}
	}
	return Pos{}
}

// syncLocked waits for pos's batch to be flushed, leading the flush
// when none runs: a batch not yet flushed is then the one buf fills.
func (l *Log) syncLocked(pos Pos) error {
	if pos.b == nil {
		return nil
	}
	for !pos.b.done {
		if l.flushing != nil {
			l.flushed.Wait()
			continue
		}
		l.flushLocked()
	}
	return pos.b.err
}

// flushLocked leads one flush: it takes the whole buffer as batch
// l.cur and commits it with l.mu released. Callers hold l.mu and found
// no flush running.
func (l *Log) flushLocked() {
	b, data, n, segCap, onFail := l.cur, l.buf, l.bufN, l.segCap, l.onFail
	l.cur = &batch{}
	l.buf, l.bufN = nil, 0
	l.flushing = b
	l.mu.Unlock()
	path, off, err := l.commit(data, segCap)
	if err != nil && onFail != nil {
		onFail(err)
	}
	l.mu.Lock()
	l.flushing = nil
	b.done, b.err, b.path, b.off = true, err, path, off
	if err == nil {
		l.frames += n
	}
	l.flushed.Broadcast()
}

// commit writes one batch to the active segment with one write and
// fsyncs it, starting a fresh segment first when there is none or the
// active one has grown past segCap. It returns where the batch
// starts. A failed write or fsync abandons the segment. Only a flush's
// leader calls it.
func (l *Log) commit(data []byte, segCap int64) (path string, off int64, err error) {
	if l.active != nil && segCap > 0 && l.size > segCap {
		l.active.Close()
		l.active = nil
	}
	if l.active == nil {
		if err := l.create(); err != nil {
			return "", 0, err
		}
	}
	path, off = l.path, l.size
	_, err = l.active.Write(data)
	if err == nil {
		err = l.active.Sync()
	}
	if err != nil {
		// A write may have left part of a frame; after a failed fsync
		// the handle is suspect (fsyncgate). Either way no frame goes
		// behind these bytes.
		l.active.Close()
		l.active = nil
		return "", 0, fmt.Errorf("store: appending to %s: %w", filepath.Base(path), err)
	}
	l.size += int64(len(data))
	return path, off, nil
}

// maxCreate bounds the segment numbers create tries past the highest
// it listed, which concurrent creators may have taken.
const maxCreate = 64

// create opens a fresh segment numbered above every segment in the
// directory and makes it the active one.
func (l *Log) create() error {
	segs, err := l.Segments()
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	n := 0
	if len(segs) > 0 {
		n = segs[len(segs)-1].n + 1
	}
	for range maxCreate {
		path := filepath.Join(l.dir, segName(n))
		f, err := l.fs.OpenAppend(path, 0o644)
		if errors.Is(err, fs.ErrExist) {
			n++
			continue
		}
		if err != nil {
			return fmt.Errorf("store: creating %s: %w", filepath.Base(path), err)
		}
		l.mu.Lock()
		l.own[path] = true
		l.mu.Unlock()
		l.active, l.path, l.size = f, path, 0
		return nil
	}
	return fmt.Errorf("store: no free segment number in %s after %d tries", l.dir, maxCreate)
}

// Close makes every frame written so far durable and closes the active
// segment, returning the error of the batch that held the last frame.
// The log stays usable: a later flush starts a fresh segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked(l.pendingLocked())
	// Frames written meanwhile are their writers' to sync, but the
	// segment closes only once no flush runs.
	for len(l.buf) > 0 || l.flushing != nil {
		l.syncLocked(l.pendingLocked())
	}
	if l.active != nil {
		err = errors.Join(err, l.active.Close())
		l.active = nil
	}
	return err
}

// Frame is one sound frame a scan found.
type Frame struct {
	Off     int64  // the frame's first byte in its segment
	Size    int64  // header plus payload
	Payload []byte // the payload, or its first bytes (Scan); valid during the callback only
}

// ScanStats is what one scan found besides sound frames.
type ScanStats struct {
	End         int64 // where framing stopped: the end, or the first byte of a torn tail
	Torn        int   // 1 when the segment ends inside a frame
	Corrupt     int   // damaged frames and unframed stretches skipped
	Quarantined int   // copies of those this scan made
}

// scanner frames the bytes [off, size) of one segment.
type scanner struct {
	// read returns n bytes from off, or fewer at the end of the segment.
	read func(off int64, n int) ([]byte, error)
	size int64
	// peek bounds the payload bytes read per frame. A scan with whole
	// set reads every payload whole and checks its checksum.
	peek  int64
	whole bool
	frame func(Frame)
	// bad is told of each damaged stretch and reports whether it made a
	// quarantine copy; nil copies nothing.
	bad func(off, n int64) bool
}

// run scans from off. A sound header whose frame runs past the end is
// a torn tail and stops the scan there, so a frame a concurrent writer
// has not finished is picked up by a later scan; so are the first
// bytes of a header cut short. A frame whose whole payload fails its
// checksum is skipped by the length its sound header states. A header
// that is not sound is skipped up to the next magic.
func (sc *scanner) run(off int64) (ScanStats, error) {
	var st ScanStats
	for off < sc.size {
		b, err := sc.read(off, int(min(frameHeader+sc.peek, sc.size-off)))
		if err != nil {
			return st, err
		}
		n, ok := payloadLen(b)
		switch {
		case ok && n > sc.size-off-frameHeader,
			!ok && len(b) < frameHeader && strings.HasPrefix(frameMagic, string(b[:min(len(b), len(frameMagic))])):
			st.Torn, st.End = 1, off
			return st, nil
		case ok:
			f := Frame{Off: off, Size: frameHeader + n, Payload: b[frameHeader:min(int64(len(b)), frameHeader+n)]}
			if sc.whole && !payloadSound(b, f.Payload) {
				sc.damaged(&st, off, f.Size)
			} else {
				sc.frame(f)
			}
			off += f.Size
			continue
		}
		next, err := sc.nextMagic(off + 1)
		if err != nil {
			return st, err
		}
		sc.damaged(&st, off, next-off)
		off = next
	}
	st.End = off
	return st, nil
}

func (sc *scanner) damaged(st *ScanStats, off, n int64) {
	st.Corrupt++
	if sc.bad != nil && sc.bad(off, n) {
		st.Quarantined++
	}
}

// nextMagic returns the offset of the first magic at or after from, or
// the size when there is none.
func (sc *scanner) nextMagic(from int64) (int64, error) {
	for from < sc.size {
		b, err := sc.read(from, int(min(scanBlock, sc.size-from)))
		if err != nil {
			return 0, err
		}
		if i := bytes.Index(b, []byte(frameMagic)); i >= 0 {
			return from + int64(i), nil
		}
		if len(b) < len(frameMagic) {
			break
		}
		// Overlap the next block so a magic across the edge is found.
		from += int64(len(b) - len(frameMagic) + 1)
	}
	return sc.size, nil
}

// ScanBytes frames data, a whole segment in memory, and calls fn with
// every sound frame, whose payload it has checked. It copies nothing
// to quarantine.
func ScanBytes(data []byte, fn func(Frame)) ScanStats { return scanBytes(data, fn, nil) }

func scanBytes(data []byte, fn func(Frame), bad func(off, n int64) bool) ScanStats {
	read := func(off int64, n int) ([]byte, error) { return data[off : off+int64(n)], nil }
	st, _ := (&scanner{read: read, size: int64(len(data)), peek: int64(len(data)), whole: true, frame: fn, bad: bad}).run(0)
	return st
}

// ScanAll reads the segment at path in one read and scans it as
// ScanBytes does, copying damage to quarantine. A failed read is
// retried once: EIO-class trouble is often transient, and a segment
// may be too precious to give up on the first error.
func (l *Log) ScanAll(path string, fn func(Frame)) (ScanStats, error) {
	data, err := l.fs.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		data, err = l.fs.ReadFile(path)
	}
	if err != nil {
		return ScanStats{}, err
	}
	return scanBytes(data, fn, func(off, n int64) bool {
		captured, _ := l.quarantine(path, off, data[off:off+n])
		return captured
	}), nil
}

// Scan frames the bytes [off, size) of the segment at path with
// positional reads, and calls fn with every frame whose header is
// sound. It reads each header and at most peek bytes of its payload,
// unchecked: whoever reads the frame later checks it whole, and
// quarantines it if it fails. The returned End is where the next scan
// of the segment starts.
func (l *Log) Scan(path string, off, size int64, peek int, fn func(Frame)) (ScanStats, error) {
	buf := make([]byte, max(frameHeader+peek, scanBlock))
	read := func(off int64, n int) ([]byte, error) {
		k, err := l.fs.ReadAt(path, buf[:n], off)
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		return buf[:k], nil
	}
	return (&scanner{read: read, size: size, peek: int64(peek), frame: fn}).run(off)
}

// quarantine copies b, damaged bytes found at off in the segment at
// path, to <segment>@<offset> in the quarantine directory. A copy
// already there is of the same damage: captured reports whether this
// call made one.
func (l *Log) quarantine(path string, off int64, b []byte) (captured bool, err error) {
	dst := filepath.Join(l.qdir, filepath.Base(path)+"@"+strconv.FormatInt(off, 10))
	f, err := l.fs.OpenAppend(dst, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil, err
}

// Quarantined reports how many copies of damage the quarantine
// directory holds, from this process and every earlier one.
func (l *Log) Quarantined() (int, error) {
	ents, err := l.fs.ReadDir(l.qdir)
	n := 0
	for _, e := range ents {
		if !e.IsDir() {
			n++
		}
	}
	return n, err
}
