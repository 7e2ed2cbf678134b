package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

type payload struct {
	Name   string
	Values []uint64
}

func testKey(kind string) Key {
	return Key{Kind: kind, Workload: "099.go", Scale: 2, MaxInsts: 30_000, Config: "(3+3)", Version: "test/v1"}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("result")
	want := payload{Name: "alpha", Values: []uint64{1, 2, 3}}

	var missed payload
	if ok, err := s.Get(k, &missed); err != nil || ok {
		t.Fatalf("Get before Put = (%v, %v), want miss", ok, err)
	}
	if err := s.Put(k, &want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s.Get(k, &got); err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v), want hit", ok, err)
	}
	if got.Name != want.Name || len(got.Values) != 3 || got.Values[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyHashDistinguishesEveryField(t *testing.T) {
	base := testKey("trace")
	seen := map[string]Key{base.Hash(): base}
	for _, k := range []Key{
		{Kind: "result", Workload: base.Workload, Scale: base.Scale, MaxInsts: base.MaxInsts, Config: base.Config, Version: base.Version},
		{Kind: base.Kind, Workload: "126.gcc", Scale: base.Scale, MaxInsts: base.MaxInsts, Config: base.Config, Version: base.Version},
		{Kind: base.Kind, Workload: base.Workload, Scale: 3, MaxInsts: base.MaxInsts, Config: base.Config, Version: base.Version},
		{Kind: base.Kind, Workload: base.Workload, Scale: base.Scale, MaxInsts: 1, Config: base.Config, Version: base.Version},
		{Kind: base.Kind, Workload: base.Workload, Scale: base.Scale, MaxInsts: base.MaxInsts, Config: "(2+0)", Version: base.Version},
		{Kind: base.Kind, Workload: base.Workload, Scale: base.Scale, MaxInsts: base.MaxInsts, Config: base.Config, Version: "test/v2"},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %v and %v", prev, k)
		}
		seen[h] = k
	}
	// The hash must be canonical, not incidental: field values that
	// could concatenate ambiguously stay distinct under %q framing.
	a := Key{Kind: "ab", Workload: "c"}
	b := Key{Kind: "a", Workload: "bc"}
	if a.Hash() == b.Hash() {
		t.Fatal("ambiguous field framing")
	}
}

// TestKeyHashPinned pins Key.Hash to the bytes every store on disk was
// written under, the SHA-256 of fmt's "%q|%q|%d|%d|%q|%q" over the
// fields: a changed hash would turn every existing record into a miss.
func TestKeyHashPinned(t *testing.T) {
	for _, tc := range []struct {
		k    Key
		want string
	}{
		{Key{Kind: "result", Workload: "130.li", Scale: 1, MaxInsts: 400000, Config: "{Name:(3+3) IssueWidth:4}", Version: "v9"},
			"7cb83c36e80b8f336e390e5a66fb28effa9011a68bb6fa2750536014171b3675"},
		{Key{Kind: "trace", Workload: "099.go", Scale: -2, MaxInsts: 1<<64 - 1},
			"a24a385c449e3fe8c3288ae16b8c8cba5de5bf363435372d3c62d64ed6a8c6e6"},
		{Key{Kind: "program", Workload: "q\"uo\\te\tπ\x00\xff", Config: "é\n", Version: "\u2028"},
			"0ffbc40f782dcceef56dc566b113258e728d5bb014e3b84480b937039843b226"},
	} {
		if got := tc.k.Hash(); got != tc.want {
			t.Errorf("%#v.Hash() = %s, want %s", tc.k, got, tc.want)
		}
		fmtHash := sha256.Sum256(fmt.Appendf(nil, "%q|%q|%d|%d|%q|%q",
			tc.k.Kind, tc.k.Workload, tc.k.Scale, tc.k.MaxInsts, tc.k.Config, tc.k.Version))
		if got := hex.EncodeToString(fmtHash[:]); got != tc.want {
			t.Errorf("fmt rendering of %#v hashes to %s, want %s", tc.k, got, tc.want)
		}
	}
}

// frameOf reports where the store's index places k's frame.
func frameOf(t *testing.T, s *Store, k Key) loc {
	t.Helper()
	at, ok := s.lookup(k.Hash())
	if !ok {
		t.Fatalf("%v is not indexed", k)
	}
	return at
}

// mangleFrame rewrites the frame at in place through fn, which may
// shorten it; bytes after the frame are kept.
func mangleFrame(t *testing.T, at loc, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(at.path)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), data[at.off:at.off+at.n]...)
	out := append(append(data[:at.off:at.off], fn(frame)...), data[at.off+at.n:]...)
	if err := os.WriteFile(at.path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionQuarantined flips one payload byte on disk and proves
// the store detects it, copies the frame to quarantine, drops it from
// the index, reports a miss (so the caller recomputes), and self-heals
// on the next Put — in this Store and in every later Open.
func TestCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("trace")
	if err := s.Put(k, &payload{Name: "x", Values: []uint64{7, 8}}); err != nil {
		t.Fatal(err)
	}
	at := frameOf(t, s, k)
	mangleFrame(t, at, func(b []byte) []byte {
		b[len(b)-1] ^= 0x40 // flip a payload bit
		return b
	})

	var got payload
	ok, err := s.Get(k, &got)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted record served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if q, err := s.Quarantined(); err != nil || q != 1 {
		t.Fatalf("quarantined = (%d, %v), want 1", q, err)
	}
	evidence, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.Base(at.path)+"@"+strconv.FormatInt(at.off, 10)))
	if err != nil || int64(len(evidence)) != at.n {
		t.Fatalf("quarantine copy: %d bytes, %v; want the %d-byte frame", len(evidence), err, at.n)
	}
	// Dropped from the index: a second Get misses without re-verifying.
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("second Get = (%v, %v), want miss", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 2 {
		t.Fatalf("stats after second Get = %+v, want 1 corrupt, 2 misses", st)
	}

	// Recompute + rewrite heals the key; the fresh frame wins on reopen.
	if err := s.Put(k, &payload{Name: "x", Values: []uint64{7, 8}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(k, &got); err != nil || !ok || got.Values[1] != 8 {
		t.Fatalf("after heal: (%v, %v) %+v", ok, err, got)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s2.Get(k, &got); err != nil || !ok || got.Values[1] != 8 {
		t.Fatalf("after reopen: (%v, %v) %+v", ok, err, got)
	}
	if st := s2.Stats(); st.Corrupt != 0 {
		t.Fatalf("reopened store re-verified the quarantined frame: %+v", st)
	}
}

// TestCorruptHeaderVariants exercises the other corruption paths on an
// indexed frame: bad magic, a record header cut short before its
// newline, and a payload one byte short.
func TestCorruptHeaderVariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"no newline", func(b []byte) []byte { return b[:frameHeader+4] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("profile")
			if err := s.Put(k, &payload{Name: "y"}); err != nil {
				t.Fatal(err)
			}
			mangleFrame(t, frameOf(t, s, k), tc.mangle)
			var got payload
			if ok, err := s.Get(k, &got); err != nil || ok {
				t.Fatalf("Get = (%v, %v), want quarantined miss", ok, err)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d", st.Corrupt)
			}
			if q, err := s.Quarantined(); err != nil || q != 1 {
				t.Fatalf("quarantined = (%d, %v), want 1", q, err)
			}
		})
	}
}

// TestFlippedKeyNeverHits flips one character inside a stored frame's
// header key, turning it into another valid key, and proves the frame
// is never served under that key: not by the Store that wrote it, not
// after a reopen, and not by a Store that picks the segment up on a
// miss. A sound frame the flipped one would have superseded keeps
// answering for its key.
func TestFlippedKeyNeverHits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before string          // the header text just before the flipped byte
		flip   func(byte) byte // one bit
		other  func(*Key)      // the valid key the flip spells, if any
	}{
		{"config", `"config":"(`, func(b byte) byte { return b ^ 1 }, func(k *Key) { k.Config = "(2+3)" }},
		{"max_insts", `"max_insts":`, func(b byte) byte { return b ^ 2 }, func(k *Key) { k.MaxInsts = 10_000 }},
		{"key_hash", `"key_hash":"`, func(b byte) byte { return b ^ 1 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			early, err := Open(dir) // indexes the segment on a miss
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("result")
			other := k
			if tc.other != nil {
				tc.other(&other)
				if err := s.Put(other, &payload{Name: "sound"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Put(k, &payload{Name: "flipped"}); err != nil {
				t.Fatal(err)
			}
			mangleFrame(t, frameOf(t, s, k), func(b []byte) []byte {
				rec := b[frameHeader:]
				nl := bytes.IndexByte(rec, '\n')
				i := bytes.Index(rec[:nl], []byte(tc.before))
				if i < 0 {
					t.Fatalf("header %s has no %s", rec[:nl], tc.before)
				}
				i += len(tc.before)
				rec[i] = tc.flip(rec[i])
				return b
			})
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []*Store{s, early, reopened} {
				var got payload
				if ok, err := st.Get(k, &got); err != nil || ok {
					t.Fatalf("Get %v = (%v, %v) %+v, want miss", k, ok, err, got)
				}
				if tc.other == nil {
					continue
				}
				got = payload{}
				if ok, err := st.Get(other, &got); err != nil || !ok || got.Name != "sound" {
					t.Fatalf("Get %v = (%v, %v) %+v, want the sound frame", other, ok, err, got)
				}
			}
			// The index build of the first Get skipped the flipped header.
			if st := reopened.Stats(); st.Torn != 1 {
				t.Fatalf("Torn = %d, want the flipped header skipped", st.Torn)
			}
			// The writer's index still named the frame: verify caught it.
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("writer stats = %+v, want the frame quarantined", st)
			}
		})
	}
}

// putAll stores one payload per workload name under testKey(kind).
func putAll(t *testing.T, s *Store, names ...string) []Key {
	t.Helper()
	var keys []Key
	for _, n := range names {
		k := testKey("result")
		k.Workload = n
		if err := s.Put(k, &payload{Name: n, Values: []uint64{uint64(len(n))}}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// wantHits requires a verified hit for every key.
func wantHits(t *testing.T, s *Store, keys ...Key) {
	t.Helper()
	for _, k := range keys {
		var got payload
		if ok, err := s.Get(k, &got); err != nil || !ok || got.Name != k.Workload {
			t.Fatalf("Get %s = (%v, %v) %+v, want hit", k.Workload, ok, err, got)
		}
	}
}

// wantMiss requires a clean miss for k.
func wantMiss(t *testing.T, s *Store, k Key) {
	t.Helper()
	var got payload
	if ok, err := s.Get(k, &got); err != nil || ok {
		t.Fatalf("Get %s = (%v, %v), want miss", k.Workload, ok, err)
	}
}

// TestTwoStoresShareDirectory is the shape of two arlworkers on one
// -store-dir: a record one Store appends after the other missed it is
// a verified hit there on the next Get, in both directions.
func TestTwoStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("result")
	wantMiss(t, b, k)
	if err := a.Put(k, &payload{Name: k.Workload}); err != nil {
		t.Fatal(err)
	}
	wantHits(t, b, k)
	if st := b.Stats(); st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("b stats = %+v, want 1 hit after 1 miss", st)
	}
	back := putAll(t, b, "written-by-b")
	wantHits(t, a, back...)
	if segs, _ := filepath.Glob(filepath.Join(dir, "objects", "seg-*.log")); len(segs) != 2 {
		t.Fatalf("segments = %v, want one per writing Store", segs)
	}
}

// TestTornTailSkipped cuts a segment mid-frame, as a crash during a
// write leaves it: the index build skips and counts the torn tail, the frames
// before it stay readable, and the torn record is a miss that a fresh
// Put heals.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := putAll(t, s, "a", "b", "c")
	last := frameOf(t, s, keys[2])
	if err := os.Truncate(last.path, last.off+last.n/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantHits(t, s2, keys[:2]...)
	if st := s2.Stats(); st.Torn != 1 {
		t.Fatalf("Torn = %d, want 1", st.Torn)
	}
	wantMiss(t, s2, keys[2])
	if st := s2.Stats(); st.Corrupt != 0 {
		t.Fatalf("a torn tail was quarantined: %+v", st)
	}
	putAll(t, s2, "c")
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantHits(t, s3, keys...)
}

// TestLaterSegmentWins: when two segments hold a frame for one key,
// the segment created later, whose number is higher, wins, whatever
// the order of the names as strings says.
func TestLaterSegmentWins(t *testing.T) {
	dir := t.TempDir()
	k := testKey("result")
	// Name order puts seg-99999999 after seg-100000000; number order
	// puts it first.
	for _, w := range []struct{ name, value string }{
		{segName(99_999_999), "stale"},
		{segName(100_000_000), "fresh"},
	} {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, &payload{Name: w.value}); err != nil {
			t.Fatal(err)
		}
		at := frameOf(t, s, k)
		if err := os.Rename(at.path, filepath.Join(dir, "objects", w.name)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s.Get(k, &got); err != nil || !ok || got.Name != "fresh" {
		t.Fatalf("Get = (%v, %v) %+v, want the later segment's frame", ok, err, got)
	}
}

// TestPutBeforeFirstGetWins: a Put that is a Store's first call
// builds the index before indexing its own frame, so the older frame
// for its key that the build scans cannot replace the newer one.
func TestPutBeforeFirstGetWins(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("result")
	if err := old.Put(k, &payload{Name: "stale"}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, &payload{Name: "fresh"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s.Get(k, &got); err != nil || !ok || got.Name != "fresh" {
		t.Fatalf("Get = (%v, %v) %+v, want the fresh frame", ok, err, got)
	}
}

// TestUnparsableHeaderResyncs damages the length in the header of a
// frame in the middle of a segment: the index build does not trust it
// and skips to the next magic, so the frames on both sides of the
// damage stay readable.
func TestUnparsableHeaderResyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := putAll(t, s, "a", "b", "c")
	mangleFrame(t, frameOf(t, s, keys[1]), func(b []byte) []byte {
		b[4] ^= 0x40 // the payload length
		return b
	})

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantHits(t, s2, keys[0], keys[2])
	if st := s2.Stats(); st.Torn != 1 {
		t.Fatalf("Torn = %d, want 1", st.Torn)
	}
	wantMiss(t, s2, keys[1])
}

// countingFS records the bytes ReadAt returns.
type countingFS struct {
	FS
	read atomic.Int64
}

func (c *countingFS) ReadAt(name string, p []byte, off int64) (int, error) {
	n, err := c.FS.ReadAt(name, p, off)
	c.read.Add(int64(n))
	return n, err
}

// TestOpenReadsHeadersOnly pins the lazy, header-only scan: Open
// reads nothing, and the index build of the first Get reads far fewer
// bytes of segments of large records than the payloads hold.
func TestOpenReadsHeadersOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const records, size = 8, 1 << 20
	var keys []Key
	for i := 0; i < records; i++ {
		k := testKey("trace")
		k.Workload = string(rune('a' + i))
		if err := s.Put(k, &payload{Name: k.Workload, Values: make([]uint64, size/8)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	fs := &countingFS{FS: OS()}
	s2, err := OpenFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if read := fs.read.Load(); read != 0 {
		t.Fatalf("Open read %d bytes, want none", read)
	}
	var got payload
	wantMiss(t, s2, testKey("absent"))
	if read := fs.read.Load(); read > records*maxHeader {
		t.Fatalf("the index build read %d bytes of %d-byte payloads", read, records*size)
	}
	for _, k := range keys {
		if ok, err := s2.Get(k, &got); err != nil || !ok || len(got.Values) != size/8 {
			t.Fatalf("Get %s = (%v, %v), want hit", k.Workload, ok, err)
		}
	}
}

// TestOpenIgnoresV1Layout: records of the file-per-record layout
// (objects/ab/<hash>) and of the arl-store/v2 segments
// (objects/seg-<pid>-<ns>.pack) are not read; they are misses, and the
// directory is otherwise usable.
func TestOpenIgnoresV1Layout(t *testing.T) {
	dir := t.TempDir()
	k := testKey("result")
	h := k.Hash()
	for _, old := range []string{filepath.Join(dir, "objects", h[:2], h), filepath.Join(dir, "objects", "seg-7-100.pack")} {
		if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(old, []byte("arlstore1 {}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantMiss(t, s, k)
	if st := s.Stats(); st.Corrupt != 0 || st.Torn != 0 {
		t.Fatalf("an old record was read: %+v", st)
	}
	k.Workload = k.Workload + "x"
	putAll(t, s, k.Workload)
	wantHits(t, s, k)
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "out.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "two" {
		t.Fatalf("read back %q, %v", b, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := testKey("result")
			k.Workload = string(rune('a' + i%4))
			for j := 0; j < 20; j++ {
				if err := s.Put(k, &payload{Name: k.Workload, Values: []uint64{uint64(j)}}); err != nil {
					t.Error(err)
					return
				}
				var got payload
				if ok, err := s.Get(k, &got); err != nil || !ok || got.Name != k.Workload {
					t.Errorf("Get = (%v, %v) %+v", ok, err, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentHammer is the arld-shaped workload: many goroutines
// hammering overlapping keys with Put and Get while the log hook is
// swapped mid-flight, under -race. It pins that the stats counters are
// exact under concurrency — hits+misses account for every Get, writes
// for every Put, and nothing is ever quarantined by contention alone.
func TestConcurrentHammer(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		keys    = 4
		rounds  = 25
	)
	// Seed every key so each verified Get is a hit.
	for i := 0; i < keys; i++ {
		k := testKey("result")
		k.Workload = string(rune('a' + i))
		if err := s.Put(k, &payload{Name: k.Workload}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				k := testKey("result")
				k.Workload = string(rune('a' + (w+j)%keys))
				s.SetLog(func(string, ...any) {}) // concurrent hook swap
				if err := s.Put(k, &payload{Name: k.Workload, Values: []uint64{uint64(j)}}); err != nil {
					t.Error(err)
					return
				}
				var got payload
				if ok, err := s.Get(k, &got); err != nil || !ok || got.Name != k.Workload {
					t.Errorf("Get = (%v, %v) %+v", ok, err, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	wantPuts := uint64(keys + workers*rounds)
	wantGets := uint64(workers * rounds)
	if st.Writes != wantPuts {
		t.Fatalf("Writes = %d, want %d", st.Writes, wantPuts)
	}
	if st.Hits != wantGets || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("Stats = %+v, want %d hits, 0 misses, 0 corrupt", st, wantGets)
	}
}

func TestPublish(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("result")
	if err := s.Put(k, &payload{Name: "p"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, _ := s.Get(k, &got); !ok {
		t.Fatal("miss")
	}
	reg := obs.NewRegistry()
	s.Publish(reg)
	found := map[string]float64{}
	for _, smp := range reg.Snapshot() {
		if smp.Value != nil {
			found[smp.Name] = *smp.Value
		}
	}
	if found["harness_store_hits_total"] != 1 || found["harness_store_writes_total"] != 1 {
		t.Fatalf("published counters = %v", found)
	}
}

// TestCloseReleasesSegment: Close frees the active segment and is
// idempotent; a Put after it opens a fresh segment, and the frames of
// both stay readable.
func TestCloseReleasesSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close before any Put: %v", err)
	}
	first := putAll(t, s, "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	second := putAll(t, s, "b")
	if segs, _ := filepath.Glob(filepath.Join(dir, "objects", "seg-*.log")); len(segs) != 2 {
		t.Fatalf("segments = %v, want a fresh one after Close", segs)
	}
	wantHits(t, s, append(first, second...)...)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantHits(t, s2, append(first, second...)...)
}

// BenchmarkGetMiss times a Get of an absent key on a directory that
// holds segs segments, one record each: the rescan a miss makes for
// the frames other processes appended lists objects/ and stats every
// segment.
func BenchmarkGetMiss(b *testing.B) {
	for _, segs := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < segs; i++ {
				w, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				k := testKey("result")
				k.Workload = strconv.Itoa(i)
				if err := w.Put(k, &payload{Name: k.Workload}); err != nil {
					b.Fatal(err)
				}
				w.Close()
			}
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			k := testKey("absent")
			var got payload
			for i := 0; i < b.N; i++ {
				if ok, err := s.Get(k, &got); err != nil || ok {
					b.Fatalf("Get = (%v, %v), want miss", ok, err)
				}
			}
		})
	}
}

// BenchmarkOpen times Open and a first Get, which indexes one segment
// shaped like an arld campaign's: 480 result frames of about 6 KB,
// then 12 programs of 100 KB and 12 traces of 64 KB.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	var sizes []int
	for i := 0; i < 480; i++ {
		sizes = append(sizes, 6<<10)
	}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, 100<<10, 64<<10)
	}
	for i, size := range sizes {
		k := testKey("result")
		k.Workload = strconv.Itoa(i)
		if err := w.Put(k, &payload{Name: strings.Repeat("x", size)}); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	k := testKey("result")
	k.Workload = "0"
	var got payload
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := s.Get(k, &got); err != nil || !ok {
			b.Fatalf("Get = (%v, %v), want hit", ok, err)
		}
		if len(s.index) != 504 {
			b.Fatalf("indexed %d frames, want 504", len(s.index))
		}
	}
}

// statDeniedFS fails every Stat with EACCES.
type statDeniedFS struct{ FS }

func (statDeniedFS) Stat(name string) (os.FileInfo, error) {
	return nil, &os.PathError{Op: "stat", Path: name, Err: syscall.EACCES}
}

// TestQuarantineNeedsNoStat: quarantining a corrupt frame probes for no
// free name, so a filesystem whose Stat fails still gets a prompt miss;
// the copy is named after the frame's segment and offset, so a second
// Store finding the same damage makes no second copy.
func TestQuarantineNeedsNoStat(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, statDeniedFS{OS()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("result")
	if err := s.Put(k, &payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	mangleFrame(t, frameOf(t, s, k), func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	})
	for _, st := range []*Store{s, mustOpen(t, dir)} {
		done := make(chan error, 1)
		go func() {
			var got payload
			ok, err := st.Get(k, &got)
			if ok {
				err = fmt.Errorf("corrupt frame served as a hit: %+v", got)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a Get of a corrupt frame did not return")
		}
	}
	if q, err := s.Quarantined(); err != nil || q != 1 {
		t.Fatalf("quarantined = (%d, %v), want one copy of the one damage", q, err)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// syncGateFS holds every segment fsync until the gate opens, and counts
// the fsyncs.
type syncGateFS struct {
	FS
	entered chan struct{}
	gate    chan struct{}
	syncs   atomic.Int64
}

func (g *syncGateFS) OpenAppend(path string, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return syncGateFile{File: f, fs: g}, nil
}

type syncGateFile struct {
	File
	fs *syncGateFS
}

func (f syncGateFile) Sync() error {
	f.fs.entered <- struct{}{}
	<-f.fs.gate
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestPutsShareFsync: Puts queued behind one held fsync share the next
// one: n Puts take two fsyncs, and every record is readable after a
// reopen.
func TestPutsShareFsync(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	fs := &syncGateFS{FS: OS(), entered: make(chan struct{}, n), gate: make(chan struct{})}
	s, err := OpenFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		k := testKey("result")
		k.Workload = strconv.Itoa(i)
		keys = append(keys, k)
		go func() { errs <- s.Put(k, &payload{Name: k.Workload}) }()
		if i == 0 {
			<-fs.entered // the first Put's fsync is held
		}
	}
	// Wait for the other Puts to queue their frames behind it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.log.mu.Lock()
		queued := s.log.bufN
		s.log.mu.Unlock()
		if queued == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d Puts queued their frames", queued, n-1)
		}
	}
	close(fs.gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.syncs.Load(); got != 2 {
		t.Fatalf("%d Puts took %d fsyncs, want 2", n, got)
	}
	wantHits(t, mustOpen(t, dir), keys...)
}
