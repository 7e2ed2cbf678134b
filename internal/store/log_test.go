package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// openLog opens a log in a fresh directory over faultfs with plan's
// faults (none when plan is nil).
func openLog(t *testing.T, plan *faultfs.Plan) (*store.Log, *faultfs.FS, string) {
	t.Helper()
	dir := t.TempDir()
	fs := faultfs.New(nil, plan, t.Logf)
	l, err := store.OpenLog(fs, filepath.Join(dir, "segs"), filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	return l, fs, dir
}

// writeSync writes payloads as one batch and waits for it.
func writeSync(l *store.Log, payloads ...[]byte) (store.Pos, error) {
	pos := l.Write(payloads...)
	return pos, l.Sync(pos)
}

// scanned is what ScanAll found in one segment.
type scanned struct {
	payloads []string
	offs     []int64
	stats    store.ScanStats
}

func scanAll(t *testing.T, l *store.Log, path string) scanned {
	t.Helper()
	var sc scanned
	st, err := l.ScanAll(path, func(f store.Frame) {
		sc.payloads = append(sc.payloads, string(f.Payload))
		sc.offs = append(sc.offs, f.Off)
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.stats = st
	return sc
}

func segments(t *testing.T, l *store.Log) []string {
	t.Helper()
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, s := range segs {
		paths = append(paths, s.Path)
	}
	return paths
}

// rewrite replaces the segment at path with fn of its bytes.
func rewrite(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fourFrames writes four frames, one batch each, and returns their
// segment and offsets.
func fourFrames(t *testing.T, l *store.Log) (string, []int64) {
	t.Helper()
	var offs []int64
	var path string
	for _, p := range []string{"alpha", "bravo", "charlie", "delta"} {
		pos, err := writeSync(l, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		var off int64
		path, off = pos.At()
		offs = append(offs, off)
	}
	return path, offs
}

// TestLogTornTail cuts the last frame short, in its payload and in its
// header, as a crash mid-write leaves it: the frames before it scan,
// the tail counts as torn and nothing is quarantined. A positional
// scan stops at the torn frame, where the next scan starts.
func TestLogTornTail(t *testing.T) {
	for _, keep := range []int64{16 + 2, 4} { // into the payload, into the header
		l, _, _ := openLog(t, nil)
		path, offs := fourFrames(t, l)
		end := offs[3] + keep
		if err := os.Truncate(path, end); err != nil {
			t.Fatal(err)
		}
		sc := scanAll(t, l, path)
		if want := []string{"alpha", "bravo", "charlie"}; fmt.Sprint(sc.payloads) != fmt.Sprint(want) ||
			sc.stats.Torn != 1 || sc.stats.Corrupt != 0 || sc.stats.Quarantined != 0 || sc.stats.End != offs[3] {
			t.Fatalf("%d bytes of the last frame kept: scanned %q, %+v; want the first three frames and a torn tail at %d",
				keep, sc.payloads, sc.stats, offs[3])
		}
		var n int
		st, err := l.Scan(path, 0, end, 0, func(store.Frame) { n++ })
		if err != nil || n != 3 || st.Torn != 1 || st.End != offs[3] {
			t.Fatalf("%d bytes kept: positional scan found %d frames, %+v, %v; want 3 and a torn tail at %d", keep, n, st, err, offs[3])
		}
	}
}

// TestLogCorruptFrameResyncs damages frames in the middle of a
// segment. A damaged length is not trusted: the scan resyncs at the
// next magic. A damaged payload under a sound header is skipped by its
// length. Either way the frames on both sides scan, the damage is
// copied to quarantine once, and a second scan of the same damage
// makes no second copy.
func TestLogCorruptFrameResyncs(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int64 // byte of frame 1 to flip
	}{
		{"length", 4},
		{"payload", 16 + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, _, dir := openLog(t, nil)
			path, offs := fourFrames(t, l)
			var damaged []byte
			rewrite(t, path, func(b []byte) []byte {
				b[offs[1]+tc.at] ^= 0x40
				damaged = bytes.Clone(b[offs[1]:offs[2]])
				return b
			})
			sc := scanAll(t, l, path)
			if want := []string{"alpha", "charlie", "delta"}; fmt.Sprint(sc.payloads) != fmt.Sprint(want) ||
				sc.stats.Corrupt != 1 || sc.stats.Quarantined != 1 || sc.stats.Torn != 0 {
				t.Fatalf("scanned %q, %+v; want the three sound frames and one quarantined damage", sc.payloads, sc.stats)
			}
			copyPath := filepath.Join(dir, "quarantine", fmt.Sprintf("%s@%d", filepath.Base(path), offs[1]))
			if got, err := os.ReadFile(copyPath); err != nil || !bytes.Equal(got, damaged) {
				t.Fatalf("quarantine copy %q (%v), want the damaged frame %q", got, err, damaged)
			}
			if again := scanAll(t, l, path); again.stats.Corrupt != 1 || again.stats.Quarantined != 0 {
				t.Fatalf("second scan %+v, want the damage counted and not copied again", again.stats)
			}
			if n, err := l.Quarantined(); err != nil || n != 1 {
				t.Fatalf("Quarantined() = %d, %v; want 1", n, err)
			}
		})
	}
}

// TestLogFailedWriteAbandonsSegment: a write that fails, whole or
// partway, fails its batch and abandons the segment; the next batch
// starts a fresh segment, so a torn frame is only ever the tail of the
// abandoned one.
func TestLogFailedWriteAbandonsSegment(t *testing.T) {
	for _, kind := range []faultfs.Kind{faultfs.ShortWrite, faultfs.WriteEIO, faultfs.WriteENOSPC} {
		t.Run(kind.String(), func(t *testing.T) {
			l, fs, _ := openLog(t, &faultfs.Plan{Faults: []faultfs.Fault{{Kind: kind, Op: 0}}})
			if _, err := writeSync(l, []byte("lost")); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted batch: %v, want injected", err)
			}
			if _, err := writeSync(l, []byte("kept")); err != nil {
				t.Fatalf("batch after the fault: %v", err)
			}
			segs := segments(t, l)
			if len(segs) != 2 || fs.Fired() != 1 || l.Frames() != 1 {
				t.Fatalf("segments %v, %d fired, %d frames; want 2 segments, 1 fault, 1 frame", segs, fs.Fired(), l.Frames())
			}
			torn := 0
			if kind == faultfs.ShortWrite {
				torn = 1
			}
			if sc := scanAll(t, l, segs[0]); len(sc.payloads) != 0 || sc.stats.Torn != torn || sc.stats.Corrupt != 0 {
				t.Fatalf("abandoned segment scanned %q, %+v; want no frame and %d torn", sc.payloads, sc.stats, torn)
			}
			if sc := scanAll(t, l, segs[1]); fmt.Sprint(sc.payloads) != "[kept]" || sc.stats != (store.ScanStats{End: sc.stats.End}) {
				t.Fatalf("fresh segment scanned %q, %+v", sc.payloads, sc.stats)
			}
		})
	}
}

// TestLogSyncFailFailsOnlyItsBatch: an fsync failure fails every
// position of its batch and no other, is reported once to OnFailure,
// and the log goes on in a fresh segment.
func TestLogSyncFailFailsOnlyItsBatch(t *testing.T) {
	// Sync op 0 is the first batch's; op 1 is the second's.
	l, _, _ := openLog(t, &faultfs.Plan{Faults: []faultfs.Fault{{Kind: faultfs.SyncFail, Op: 1}}})
	var reported []error
	l.OnFailure(func(err error) { reported = append(reported, err) })
	before, err := writeSync(l, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	failed := []store.Pos{l.Write([]byte("second")), l.Write([]byte("third"))}
	for _, pos := range failed {
		if err := l.Sync(pos); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Sync of the failed batch = %v, want injected", err)
		}
	}
	if err := l.Sync(before); err != nil {
		t.Fatalf("Sync of the earlier batch = %v after a later batch failed", err)
	}
	if len(reported) != 1 || !errors.Is(reported[0], faultfs.ErrInjected) {
		t.Fatalf("OnFailure heard %v, want the one failed batch once", reported)
	}
	after, err := writeSync(l, []byte("fourth"))
	if err != nil {
		t.Fatalf("batch after the failure: %v", err)
	}
	if p0, _ := before.At(); p0 == first(after.At()) {
		t.Fatalf("the batch after a failed fsync went to the suspect segment %s", p0)
	}
	if l.Frames() != 2 {
		t.Fatalf("Frames() = %d, want the 2 durable frames", l.Frames())
	}
}

func first(path string, _ int64) string { return path }

// TestLogConcurrentRotationExactlyOnce drives concurrent writers
// across many rotations: every frame is in exactly one segment, and
// every segment scans clean.
func TestLogConcurrentRotationExactlyOnce(t *testing.T) {
	l, _, _ := openLog(t, &faultfs.Plan{})
	l.SetSegmentCap(4 << 10)
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := writeSync(l, fmt.Appendf(nil, "%d/%d %0100d", w, i, 0)); err != nil {
					t.Errorf("writer %d frame %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	segs := segments(t, l)
	for _, seg := range segs {
		sc := scanAll(t, l, seg)
		if sc.stats.Corrupt != 0 || sc.stats.Torn != 0 {
			t.Fatalf("%s: %+v", seg, sc.stats)
		}
		for _, p := range sc.payloads {
			seen[p]++
		}
	}
	if len(segs) < 3 || len(seen) != writers*perWriter {
		t.Fatalf("%d distinct frames over %d segments, want %d over several", len(seen), len(segs), writers*perWriter)
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("frame %.8s in %d segments", p, n)
		}
	}
}

// gatedFS holds every segment fsync at a gate until it opens, and
// counts the writes and fsyncs it passes on.
type gatedFS struct {
	store.FS
	entered chan struct{} // receives once per fsync that reaches the gate
	gate    chan struct{} // closed to let fsyncs through

	writes, syncs atomic.Int64
}

func (g *gatedFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	f, err := g.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	store.File
	fs *gatedFS
}

func (f *gatedFile) Write(p []byte) (int, error) { f.fs.writes.Add(1); return f.File.Write(p) }

func (f *gatedFile) Sync() error {
	f.fs.entered <- struct{}{}
	<-f.fs.gate
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestLogGroupCommitSharesFsync: while one flush's fsync is held at the
// gate, every frame written meanwhile waits for the next flush, which
// takes them all: n frames, two writes, two fsyncs.
func TestLogGroupCommitSharesFsync(t *testing.T) {
	const n = 8
	fs := &gatedFS{FS: faultfs.New(nil, &faultfs.Plan{}, t.Logf), entered: make(chan struct{}, 64), gate: make(chan struct{})}
	dir := t.TempDir()
	l, err := store.OpenLog(fs, dir, filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	go func() { _, err := writeSync(l, []byte("0")); errs <- err }()
	<-fs.entered // the leader holds batch 1 at the gate
	var written sync.WaitGroup
	for i := 1; i < n; i++ {
		written.Add(1)
		go func() {
			pos := l.Write([]byte(fmt.Sprint(i)))
			written.Done()
			errs <- l.Sync(pos)
		}()
	}
	written.Wait()
	close(fs.gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if w, s := fs.writes.Load(), fs.syncs.Load(); w != 2 || s != 2 || l.Frames() != n {
		t.Fatalf("%d frames took %d writes and %d fsyncs (%d durable), want 2, 2 and %d", n, w, s, l.Frames(), n)
	}
}

// staleListFS lists no segments, as a listing taken before another
// writer created its segment would.
type staleListFS struct{ store.FS }

func (staleListFS) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }

// TestLogsNeverShareSegment: each Log appends to segments it created,
// numbered above those it listed; a number another writer took since
// the listing is passed over, not appended to.
func TestLogsNeverShareSegment(t *testing.T) {
	dir := t.TempDir()
	open := func(fs store.FS) *store.Log {
		l, err := store.OpenLog(fs, dir, filepath.Join(dir, "quarantine"))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b := open(store.OS()), open(store.OS())
	pa, err := writeSync(a, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := writeSync(b, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	c := open(staleListFS{store.OS()})
	pc, err := writeSync(c, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range []store.Pos{pa, pb, pc} {
		path, off := p.At()
		got = append(got, fmt.Sprintf("%s@%d", filepath.Base(path), off))
	}
	want := []string{"seg-00000000.log@0", "seg-00000001.log@0", "seg-00000002.log@0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames at %v, want %v", got, want)
	}
	if !a.Owns(filepath.Join(dir, "seg-00000000.log")) || a.Owns(filepath.Join(dir, "seg-00000001.log")) {
		t.Fatal("Owns does not name exactly the segments a Log created")
	}
}
