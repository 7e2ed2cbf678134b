package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/store"
)

func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 16, 64)
	b := NewPlan(42, 16, 64)
	if len(a.Faults) != 16 {
		t.Fatalf("plan has %d faults, want 16", len(a.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs across same-seed plans: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
		if a.Faults[i].Op >= 64 {
			t.Fatalf("fault %d op %d outside window 64", i, a.Faults[i].Op)
		}
	}
	c := NewPlan(43, 16, 64)
	same := true
	for i := range a.Faults {
		if a.Faults[i] != c.Faults[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("7:4:64")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 || len(p.Faults) != 4 {
		t.Fatalf("got seed %d, %d faults; want 7, 4", p.Seed, len(p.Faults))
	}
	want := NewPlan(7, 4, 64)
	for i := range p.Faults {
		if p.Faults[i] != want.Faults[i] {
			t.Fatalf("ParsePlan fault %d = %v, want %v", i, p.Faults[i], want.Faults[i])
		}
	}
	for _, bad := range []string{"", "x", "1:2", "1:-2:3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestEachKindFiresOnce walks every fault kind through a real write
// path and checks the fault fires at its exact ordinal, exactly once.
func TestEachKindFiresOnce(t *testing.T) {
	dir := t.TempDir()

	t.Run("write-eio", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: WriteEIO, Op: 1}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w1"))
		if _, err := f.Write([]byte("op0")); err != nil {
			t.Fatalf("op0 should pass: %v", err)
		}
		_, err := f.Write([]byte("op1"))
		if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("op1 err = %v, want injected EIO", err)
		}
		if _, err := f.Write([]byte("op2")); err != nil {
			t.Fatalf("address fired once, op2 should pass: %v", err)
		}
		f.Close()
		if fs.Fired() != 1 {
			t.Fatalf("Fired = %d, want 1", fs.Fired())
		}
	})

	t.Run("short-write", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: ShortWrite, Op: 0}}}, t.Logf)
		path := filepath.Join(dir, "w2")
		f := mustAppend(t, fs, path)
		n, err := f.Write([]byte("abcdefgh"))
		if !errors.Is(err, ErrInjected) || n != 4 {
			t.Fatalf("short write: n=%d err=%v, want 4 bytes then injected error", n, err)
		}
		f.Close()
		data, _ := os.ReadFile(path)
		if string(data) != "abcd" {
			t.Fatalf("file holds %q, want the torn half %q", data, "abcd")
		}
	})

	t.Run("enospc", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: WriteENOSPC, Op: 0}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w3"))
		_, err := f.Write([]byte("x"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC", err)
		}
		f.Close()
	})

	t.Run("sync-fail", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: SyncFail, Op: 0}}}, t.Logf)
		f := mustAppend(t, fs, filepath.Join(dir, "w4"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync err = %v, want injected", err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("second sync should pass: %v", err)
		}
		f.Close()
	})

	t.Run("read-eio", func(t *testing.T) {
		fs := New(nil, &Plan{Faults: []Fault{{Kind: ReadEIO, Op: 0}}}, t.Logf)
		path := filepath.Join(dir, "r1")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(path); !errors.Is(err, syscall.EIO) {
			t.Fatalf("read err = %v, want EIO", err)
		}
		if data, err := fs.ReadFile(path); err != nil || string(data) != "x" {
			t.Fatalf("retry after once-only fault: %q, %v", data, err)
		}
	})

	t.Run("read-eio-at", func(t *testing.T) {
		// ReadFile and ReadAt share the read ordinals.
		fs := New(nil, &Plan{Faults: []Fault{{Kind: ReadEIO, Op: 1}}}, t.Logf)
		path := filepath.Join(dir, "r2")
		if err := os.WriteFile(path, []byte("xyz"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(path); err != nil {
			t.Fatalf("op0 should pass: %v", err)
		}
		p := make([]byte, 2)
		if _, err := fs.ReadAt(path, p, 1); !errors.Is(err, syscall.EIO) {
			t.Fatalf("read err = %v, want EIO", err)
		}
		if n, err := fs.ReadAt(path, p, 1); err != nil || string(p[:n]) != "yz" {
			t.Fatalf("retry after once-only fault: %q, %v", p[:n], err)
		}
	})
}

// TestStoreSurvivesWriteFaults drives the artifact store's append
// path through injected faults: the Put fails cleanly and abandons its
// segment, a retried Put lands in a fresh segment, and a reopened
// store reads it back — skipping the torn half-frame a short write
// leaves.
func TestStoreSurvivesWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		segs int    // segment files after the retried Put
		torn uint64 // torn tails a reopen skips
	}{
		{WriteEIO, 2, 0},
		{ShortWrite, 2, 1},
		{WriteENOSPC, 2, 0},
		{SyncFail, 2, 0},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			fs := New(nil, &Plan{Faults: []Fault{{Kind: tc.kind, Op: 0}}}, t.Logf)
			st, err := store.OpenFS(dir, fs)
			if err != nil {
				t.Fatalf("OpenFS: %v", err)
			}
			key := store.Key{Kind: "result", Workload: "w", Scale: 1}
			err = st.Put(key, "payload")
			if !errors.Is(err, ErrInjected) || fs.Fired() != 1 {
				t.Fatalf("Put err = %v (%d fired), want injected", err, fs.Fired())
			}
			if err := st.Put(key, "payload"); err != nil {
				t.Fatalf("retried Put: %v", err)
			}
			var got string
			ok, err := st.Get(key, &got)
			if !ok || err != nil || got != "payload" {
				t.Fatalf("Get after retry: ok=%v %q %v", ok, got, err)
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "objects", "seg-*.log")); len(segs) != tc.segs {
				t.Fatalf("segments = %v, want %d", segs, tc.segs)
			}
			re, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got = ""
			if ok, err := re.Get(key, &got); !ok || err != nil || got != "payload" {
				t.Fatalf("Get after reopen: ok=%v %q %v", ok, got, err)
			}
			if s := re.Stats(); s.Torn != tc.torn || s.Corrupt != 0 {
				t.Fatalf("reopened stats = %+v, want %d torn, 0 corrupt", s, tc.torn)
			}
		})
	}
}

// TestStoreReadFaults puts EIO on the store's positional reads: on a
// Get's frame read it is an environmental error, not corruption, and
// the retry hits; on the header scan of the index build it leaves the
// segment for the next miss to index.
func TestStoreReadFaults(t *testing.T) {
	dir := t.TempDir()
	writer, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{Kind: "result", Workload: "w", Scale: 1}
	if err := writer.Put(key, "payload"); err != nil {
		t.Fatal(err)
	}

	fs := New(nil, &Plan{Faults: []Fault{{Kind: ReadEIO, Op: 0}, {Kind: ReadEIO, Op: 2}}}, t.Logf)
	st, err := store.OpenFS(dir, fs) // reads nothing
	if err != nil {
		t.Fatalf("OpenFS over a failing scan: %v", err)
	}
	var got string
	// Read op 0: the first Get's index build fails to scan the
	// segment; op 1: the miss rescans and finds the frame; op 2: the
	// frame read fails.
	if ok, err := st.Get(key, &got); ok || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Get = (%v, %v), want an EIO error", ok, err)
	}
	if ok, err := st.Get(key, &got); !ok || err != nil || got != "payload" {
		t.Fatalf("retried Get = (%v, %v) %q, want hit", ok, err, got)
	}
	if s := st.Stats(); s.Corrupt != 0 || fs.Fired() != 2 {
		t.Fatalf("stats = %+v with %d fired, want no corruption and both faults", s, fs.Fired())
	}
}

// TestStoreIndexBuildRetried fails the listing of objects/ that the
// first Get's index build makes: that Get returns the error, and the
// next Get builds the index and hits instead of failing for the rest
// of the process.
func TestStoreIndexBuildRetried(t *testing.T) {
	dir := t.TempDir()
	writer, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{Kind: "result", Workload: "w", Scale: 1}
	if err := writer.Put(key, "payload"); err != nil {
		t.Fatal(err)
	}

	fs := &failingReadDir{FS: New(nil, &Plan{}, t.Logf), fail: 1}
	st, err := store.OpenFS(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if ok, err := st.Get(key, &got); ok || !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Get = (%v, %v), want an EMFILE error", ok, err)
	}
	if ok, err := st.Get(key, &got); !ok || err != nil || got != "payload" {
		t.Fatalf("Get after the failed build = (%v, %v) %q, want hit", ok, err, got)
	}
	if err := st.Put(store.Key{Kind: "result", Workload: "w", Scale: 2}, "more"); err != nil {
		t.Fatalf("Put after the failed build: %v", err)
	}
}

// failingReadDir fails its first fail ReadDir calls with EMFILE.
type failingReadDir struct {
	store.FS
	fail int
}

func (f *failingReadDir) ReadDir(name string) ([]os.DirEntry, error) {
	if f.fail > 0 {
		f.fail--
		return nil, &os.PathError{Op: "readdir", Path: name, Err: syscall.EMFILE}
	}
	return f.FS.ReadDir(name)
}

func mustAppend(t *testing.T, fs *FS, path string) store.File {
	t.Helper()
	f, err := fs.OpenAppend(path, 0o644)
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	return f
}
