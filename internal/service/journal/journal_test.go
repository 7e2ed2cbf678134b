package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

func jobRec(i int) Record {
	return Record{T: TypeJob, Job: fmt.Sprintf("c%04d", i), Tenant: "t", Req: json.RawMessage(`{"workloads":["li"]}`)}
}

func collect(t *testing.T, j *Journal) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := j.Replay(func(r Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, stats
}

// segPath is the path of the journal's n-th segment.
func segPath(dir string, n int) string { return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", n)) }

// segments lists the journal's segment files.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// appendSync writes recs and waits for them to be durable.
func appendSync(j *Journal, recs ...Record) error {
	pos, err := j.Write(recs...)
	if err != nil {
		return err
	}
	return j.Sync(pos)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := []Record{
		{T: TypeJob, Job: "c0000", Tenant: "alpha", IdemKey: "k-1", Req: json.RawMessage(`{"scale":1}`)},
		{T: TypeEvent, Job: "c0000", Seq: 0, Unit: 0, State: "running"},
		{T: TypeEvent, Job: "c0000", Seq: 1, Unit: 0, State: "done", Result: json.RawMessage(`{"ipc":1.5}`)},
		{T: TypeEnd, Job: "c0000", State: "complete"},
	}
	for _, r := range want {
		if err := appendSync(j, r); err != nil {
			t.Fatalf("appendSync: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	got, stats := collect(t, j2)
	if stats.Corrupt != 0 || stats.Torn != 0 {
		t.Fatalf("clean journal replayed with corrupt=%d torn=%d", stats.Corrupt, stats.Torn)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Fatalf("record %d = %s, want %s", i, g, w)
		}
	}
}

// countingFS counts the writes and fsyncs made through the segment
// handles it opens.
type countingFS struct {
	store.FS
	writes, syncs int
}

func (c *countingFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	f, err := c.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) { f.fs.writes++; return f.File.Write(p) }
func (f *countingFile) Sync() error                 { f.fs.syncs++; return f.File.Sync() }

// TestAppendBatchOneWriteOneSync: records passed to one Write reach
// the segment in one write under one fsync, replay in order, and each
// counts in Appends.
func TestAppendBatchOneWriteOneSync(t *testing.T) {
	fs := &countingFS{FS: store.OS()}
	dir := t.TempDir()
	j, err := OpenFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{T: TypeEvent, Job: "c0000", Seq: 7, Unit: 3, State: "done", Result: json.RawMessage(`{"ipc":2}`)},
		{T: TypeEnd, Job: "c0000", State: "complete"},
	}
	writes, syncs := fs.writes, fs.syncs
	if err := appendSync(j, want...); err != nil {
		t.Fatal(err)
	}
	if w, s := fs.writes-writes, fs.syncs-syncs; w != 1 || s != 1 {
		t.Fatalf("a two-record batch made %d writes and %d fsyncs, want 1 and 1", w, s)
	}
	if n := j.Appends(); n != len(want) {
		t.Fatalf("Appends() = %d, want %d", n, len(want))
	}
	j.Close()

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, _ := collect(t, j2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Fatalf("record %d = %s, want %s", i, g, w)
		}
	}
}

// TestFreshSegmentPerProcess checks each Open starts a new segment, so
// a successor never appends to (and can never tear) a predecessor's
// file.
func TestFreshSegmentPerProcess(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		j, err := Open(dir)
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if err := appendSync(j, jobRec(i)); err != nil {
			t.Fatalf("appendSync: %v", err)
		}
		j.Close()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs != 3 {
		t.Fatalf("3 generations left %d segments, want 3", segs)
	}
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, _ := collect(t, j)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records across segments, want 3", len(recs))
	}
}

// TestTornTailTolerated truncates the newest segment mid-record — the
// exact debris of a SIGKILL during an append — and checks replay keeps
// every complete record, counts one torn tail, and quarantines
// nothing (a torn tail is expected crash debris, not corruption).
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendSync(j, jobRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	seg := segPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, stats := collect(t, j2)
	if len(recs) != 4 || stats.Torn != 1 || stats.Corrupt != 0 || stats.Quarantined != 0 {
		t.Fatalf("got %d records, stats %+v; want 4 records, torn=1, corrupt=0, quarantined=0", len(recs), stats)
	}
}

// TestCorruptRecordSkippedAndQuarantined flips bytes inside one record
// of a multi-record segment: replay must drop exactly that record,
// keep both its predecessors and successors, and capture the segment
// in quarantine/.
func TestCorruptRecordSkippedAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendSync(j, jobRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	seg := segPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload of the middle record.
	mid := []byte(`"t":"job","job":"c0002"`)
	if !bytes.Contains(data, mid) {
		t.Fatalf("segment holds no %s", mid)
	}
	data = bytes.Replace(data, mid, []byte(`"t":"JOB","job":"c0002"`), 1)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, stats := collect(t, j2)
	if len(recs) != 4 || stats.Corrupt != 1 || stats.Quarantined != 1 {
		t.Fatalf("got %d records, stats %+v; want 4 records, corrupt=1, quarantined=1", len(recs), stats)
	}
	for _, r := range recs {
		if r.Job == "c0002" {
			t.Fatal("the corrupted record leaked through replay")
		}
	}
	if n, err := j2.Quarantined(); err != nil || n != 1 {
		t.Fatalf("Quarantined() = %d, %v; want 1", n, err)
	}
	// A second replay of the same damage reuses the existing capture.
	_, stats = collect(t, j2)
	if stats.Quarantined != 0 {
		t.Fatalf("re-replay quarantined %d more copies of the same segment", stats.Quarantined)
	}
}

// TestReplayRetriesTransientReadError: a journal segment read that
// fails once (EIO-class transient trouble) is retried before the
// segment is abandoned — no records may be lost to a transient fault.
func TestReplayRetriesTransientReadError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendSync(j, jobRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	fs := faultfs.New(nil, &faultfs.Plan{Faults: []faultfs.Fault{{Kind: faultfs.ReadEIO, Op: 0}}}, t.Logf)
	j2, err := OpenFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, _ := collect(t, j2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records through a transient read fault, want 3", len(recs))
	}
	if fs.Fired() != 1 {
		t.Fatalf("fault fired %d times, want 1", fs.Fired())
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 64<<10)
	n := DefaultSegmentCap/(64<<10) + 4
	for i := 0; i < n; i++ {
		if err := appendSync(j, Record{T: TypeEvent, Job: "c0000", Seq: i, Error: big}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if segs := segments(t, dir); len(segs) < 2 {
		t.Fatalf("%d oversized appends stayed in %d segment(s), want rotation", n, len(segs))
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, _ := collect(t, j2)
	if len(recs) != n {
		t.Fatalf("replayed %d records across rotated segments, want %d", len(recs), n)
	}
}

// An append after Close fails with os.ErrClosed instead of writing to
// the closed segment or, when the segment is over its rotation
// threshold, rotating onto a new one.
func TestAppendAfterClose(t *testing.T) {
	for _, segCap := range []int{0, 1} {
		dir := t.TempDir()
		j, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		j.SetSegmentCap(segCap)
		if err := appendSync(j, jobRec(0)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		before := segments(t, dir)
		if err := appendSync(j, jobRec(1)); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("segment cap %d: appendSync after Close: %v, want os.ErrClosed", segCap, err)
		}
		if after := segments(t, dir); len(after) != len(before) {
			t.Fatalf("segment cap %d: appendSync after Close left %d segments, want %d", segCap, len(after), len(before))
		}
	}
}

// TestConcurrentCorruptionHammer is the journal's adversarial
// integrity test: many goroutines append concurrently while byte
// flips land in already-closed segments and replays run in parallel.
// Invariants: (1) no append is torn by another — every record a
// generation wrote and did not later have corrupted replays intact;
// (2) corrupted records are skipped and their segments quarantined,
// never decoded; (3) the final replay recovers exactly the uncorrupted
// set. Run under -race this also proves the locking discipline.
func TestConcurrentCorruptionHammer(t *testing.T) {
	dir := t.TempDir()

	const (
		generations = 4
		writers     = 8
		perWriter   = 25
	)
	written := make(map[string]bool)
	corrupted := make(map[string]bool)

	for gen := 0; gen < generations; gen++ {
		j, err := Open(dir)
		if err != nil {
			t.Fatalf("gen %d Open: %v", gen, err)
		}

		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := fmt.Sprintf("g%d-w%d-%d", gen, w, i)
					if err := appendSync(j, Record{T: TypeJob, Job: id, Tenant: "hammer"}); err != nil {
						t.Errorf("append %s: %v", id, err)
						return
					}
					mu.Lock()
					written[id] = true
					mu.Unlock()
				}
			}(w)
		}
		// Concurrent replays exercise read-during-append; results are
		// discarded (a replay racing appends sees a valid prefix).
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := j.Replay(func(Record) {}); err != nil {
				t.Errorf("concurrent replay: %v", err)
			}
		}()
		wg.Wait()
		j.Close()

		// Adversary: flip bytes inside one committed record of this
		// generation's segment. splitmix64-free determinism: always the
		// second frame.
		seg := segPath(dir, gen)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var frames []store.Frame
		store.ScanBytes(data, func(f store.Frame) { frames = append(frames, f) })
		if len(frames) > 1 {
			victim := frames[1]
			var rec Record
			if err := json.Unmarshal(victim.Payload, &rec); err != nil {
				t.Fatalf("gen %d victim record undecodable before corruption: %v", gen, err)
			}
			corrupted[rec.Job] = true
			data[victim.Off+victim.Size/2] ^= 0xFF
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := make(map[string]bool)
	stats, err := j.Replay(func(r Record) {
		if got[r.Job] {
			t.Errorf("record %s replayed twice", r.Job)
		}
		got[r.Job] = true
	})
	if err != nil {
		t.Fatal(err)
	}

	for id := range written {
		switch {
		case corrupted[id] && got[id]:
			t.Errorf("corrupted record %s leaked through replay", id)
		case !corrupted[id] && !got[id]:
			t.Errorf("intact record %s lost", id)
		}
	}
	for id := range got {
		if !written[id] {
			t.Errorf("replay invented record %s", id)
		}
	}
	if stats.Corrupt != len(corrupted) {
		t.Errorf("stats.Corrupt = %d, want %d", stats.Corrupt, len(corrupted))
	}
	// Mid-hammer replays may already have captured earlier generations'
	// damage, so assert the lifetime total rather than this pass's count.
	if n, err := j.Quarantined(); err != nil || n != len(corrupted) {
		t.Errorf("Quarantined() = %d, %v; want %d (one per damaged record)", n, err, len(corrupted))
	}
	want := len(written) - len(corrupted)
	if len(got) != want {
		t.Errorf("recovered %d records, want %d (of %d written, %d corrupted)", len(got), want, len(written), len(corrupted))
	}
}

// TestConcurrentRotationExactlyOnce drives concurrent appenders across
// several segment-rotation boundaries and then replays: every record
// must come back exactly once — rotation must neither drop the record
// that triggered it nor let two segments both carry it. The hammer
// above corrupts closed segments; this one leaves the bytes alone so
// any discrepancy is the rotation path's fault. SetSegmentCap shrinks
// the threshold so the test crosses real boundaries without writing
// 4MB per crossing; the check itself is cap-independent.
func TestConcurrentRotationExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSegmentCap(8 << 10)

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{T: TypeEvent, Job: fmt.Sprintf("c%04d", w), Seq: i,
					State: "done", Error: strings.Repeat("p", 100)}
				if err := appendSync(j, rec); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seen := make(map[string]int)
	stats, err := j2.Replay(func(r Record) {
		seen[fmt.Sprintf("%s/%d", r.Job, r.Seq)]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments < 3 {
		t.Fatalf("replay saw %d segments; the cap should have forced several rotations", stats.Segments)
	}
	if stats.Corrupt != 0 || stats.Torn != 0 {
		t.Fatalf("clean rotation produced corrupt=%d torn=%d", stats.Corrupt, stats.Torn)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*perWriter)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("record %s replayed %d times", key, n)
		}
	}
}

// gatedFS blocks every segment fsync until the gate opens, and counts
// the writes and fsyncs it passes on.
type gatedFS struct {
	store.FS
	entered chan struct{} // receives once per fsync that reaches the gate
	gate    chan struct{} // closed to let fsyncs through

	writes, syncs atomic.Int64
}

func newGatedFS(inner store.FS) *gatedFS {
	return &gatedFS{FS: inner, entered: make(chan struct{}, 64), gate: make(chan struct{})}
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

// TestGroupCommitSharesFsync: while one flush's fsync is held at the
// gate, every record written meanwhile waits for the next flush, which
// takes them all: n records, two writes, two fsyncs.
func TestGroupCommitSharesFsync(t *testing.T) {
	const n = 8
	fs := newGatedFS(store.OS())
	dir := t.TempDir()
	j, err := OpenFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	writes := fs.writes.Load()

	errs := make(chan error, n)
	go func() { errs <- appendSync(j, jobRec(0)) }()
	<-fs.entered // the leader holds batch 1 at the gate
	var written sync.WaitGroup
	for i := 1; i < n; i++ {
		written.Add(1)
		go func() {
			pos, err := j.Write(jobRec(i))
			written.Done()
			if err == nil {
				err = j.Sync(pos)
			}
			errs <- err
		}()
	}
	written.Wait()
	close(fs.gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if w, s := fs.writes.Load()-writes, fs.syncs.Load(); w != 2 || s != 2 {
		t.Fatalf("%d records took %d writes and %d fsyncs, want 2 and 2", n, w, s)
	}
	if got := j.Appends(); got != n {
		t.Fatalf("Appends() = %d, want %d", got, n)
	}
	j.Close()

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs, _ := collect(t, j2); len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

// TestSyncFailFailsOnlyItsBatch: an fsync failure fails every position
// of its batch and no other, and the journal goes on: later batches
// are durable and replay.
func TestSyncFailFailsOnlyItsBatch(t *testing.T) {
	// Sync op 0 is the first batch's; op 1 is the second's.
	fs := faultfs.New(nil, &faultfs.Plan{Faults: []faultfs.Fault{{Kind: faultfs.SyncFail, Op: 1}}}, t.Logf)
	dir := t.TempDir()
	j, err := OpenFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	var reported []error
	j.OnFailure(func(err error) { reported = append(reported, err) })
	before, err := j.Write(jobRec(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(before); err != nil {
		t.Fatal(err)
	}
	var failed []Pos
	for i := 1; i <= 2; i++ {
		pos, err := j.Write(jobRec(i))
		if err != nil {
			t.Fatal(err)
		}
		failed = append(failed, pos)
	}
	for _, pos := range failed {
		if err := j.Sync(pos); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Sync of the failed batch = %v, want injected", err)
		}
	}
	if err := j.Sync(before); err != nil {
		t.Fatalf("Sync of the earlier batch = %v after a later batch failed", err)
	}
	if len(reported) != 1 || !errors.Is(reported[0], faultfs.ErrInjected) {
		t.Fatalf("OnFailure heard %v, want the one failed batch once", reported)
	}
	if err := appendSync(j, jobRec(3)); err != nil {
		t.Fatalf("append after a failed batch: %v", err)
	}
	if got := j.Appends(); got != 2 {
		t.Fatalf("Appends() = %d, want the 2 durable records", got)
	}
	j.Close()

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, _ := collect(t, j2)
	if len(recs) == 0 || recs[len(recs)-1].Job != "c0003" {
		t.Fatalf("replay %+v does not end with the batch after the failure", recs)
	}
}

// overlapFS fails any segment file call that starts while another is
// in progress, anywhere in the journal: the leader of a flush must be
// the only caller.
type overlapFS struct {
	store.FS
	busy     atomic.Bool
	overlaps atomic.Int64
}

func (o *overlapFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	f, err := o.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return &overlapFile{File: f, fs: o}, nil
}

type overlapFile struct {
	store.File
	fs *overlapFS
}

// enter claims the journal's file handles for one call, failing when
// another call holds them; the sleep widens the window.
func (f *overlapFile) enter() (func(), error) {
	if !f.fs.busy.CompareAndSwap(false, true) {
		f.fs.overlaps.Add(1)
		return nil, errors.New("overlapping segment file calls")
	}
	time.Sleep(20 * time.Microsecond)
	return func() { f.fs.busy.Store(false) }, nil
}

func (f *overlapFile) Write(p []byte) (int, error) {
	exit, err := f.enter()
	if err != nil {
		return 0, err
	}
	defer exit()
	return f.File.Write(p)
}

func (f *overlapFile) Sync() error {
	exit, err := f.enter()
	if err != nil {
		return err
	}
	defer exit()
	return f.File.Sync()
}

func (f *overlapFile) Close() error {
	exit, err := f.enter()
	if err != nil {
		return err
	}
	defer exit()
	return f.File.Close()
}

// TestSegmentCallsNeverOverlap hammers the journal with concurrent
// appends and flushes across rotations: no two segment file calls may
// run at once. Under -race it also checks the flush leader's hand-off.
func TestSegmentCallsNeverOverlap(t *testing.T) {
	fs := &overlapFS{FS: store.OS()}
	dir := t.TempDir()
	j, err := OpenFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSegmentCap(4 << 10)
	const writers, perWriter = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{T: TypeEvent, Job: fmt.Sprintf("c%04d", w), Seq: i, Error: strings.Repeat("p", 64)}
				if err := appendSync(j, rec); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
				if i%8 == 0 {
					if err := j.Flush(); err != nil {
						t.Errorf("writer %d flush: %v", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fs.overlaps.Load(); n != 0 {
		t.Fatalf("%d segment file calls overlapped another", n)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, stats := collect(t, j2)
	if len(recs) != writers*perWriter || stats.Segments < 3 {
		t.Fatalf("replayed %d records over %d segments, want %d over several", len(recs), stats.Segments, writers*perWriter)
	}
}

// TestSegmentCopiesNotReplayed: only a file named exactly like a
// segment is one. A backup copy of the second segment, or the same
// number unpadded, leaves the replayed records unchanged.
func TestSegmentCopiesNotReplayed(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSegmentCap(1) // each batch after the first starts a segment
	for i := 0; i < 3; i++ {
		if err := appendSync(j, jobRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := collect(t, j)
	j.Close()
	if len(want) != 3 {
		t.Fatalf("replayed %d records, want 3", len(want))
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{filepath.Base(segPath(dir, 1)) + ".bak", "seg-1.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got, _ := collect(t, j2); !reflect.DeepEqual(got, want) {
		t.Fatalf("with segment copies replayed %+v, want %+v", got, want)
	}
}
