package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// gateFS holds every journal fsync while its gate is shut.
type gateFS struct {
	store.FS
	entered chan struct{} // receives once per fsync held at the gate

	mu   sync.Mutex
	gate chan struct{} // nil while open
}

func newGateFS(inner store.FS) *gateFS {
	return &gateFS{FS: inner, entered: make(chan struct{}, 64)}
}

// shut holds fsyncs from now on; the returned func lets them through
// and may be called again (a test defers it, so a failure never leaves
// the service's cleanup stuck at the gate).
func (g *gateFS) shut() (open func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.gate = nil
			g.mu.Unlock()
			close(gate)
		})
	}
}

func (g *gateFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	f, err := g.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	store.File
	fs *gateFS
}

func (f gateFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.entered <- struct{}{}
		<-gate
	}
	return f.File.Sync()
}

// held waits for an fsync to reach the shut gate, then for a short
// window more, failing the test if anything arrives on ch meanwhile.
func held[T any](t *testing.T, fs *gateFS, ch <-chan T, what string) {
	t.Helper()
	window := time.After(100 * time.Millisecond)
	for entered := fs.entered; ; {
		select {
		case v := <-ch:
			t.Fatalf("%s before its journal record was durable: %+v", what, v)
		case <-entered:
			entered = nil
		case <-window:
			if entered == nil {
				return
			}
		}
	}
}

// TestRepliesWaitForDurableRecords: with the journal's fsyncs held,
// neither the submit reply nor the /events line of a done unit leaves
// the service; both follow once the fsync goes through.
func TestRepliesWaitForDurableRecords(t *testing.T) {
	fs := newGateFS(store.OS())
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{Workers: 1})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		st  JobStatus
		err error
	}
	replies := make(chan reply, 1)
	open := fs.shut()
	defer open()
	go func() {
		st, err := cl.Submit(CampaignRequest{MaxInsts: testMaxInsts,
			Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}})
		replies <- reply{st, err}
	}()
	held(t, fs, replies, "the submit reply arrived")
	open()
	r := <-replies
	if r.err != nil {
		t.Fatal(r.err)
	}

	// The unit runs and finishes on a local worker, which waits on no
	// fsync, so its done event is in memory while its record is not yet
	// durable.
	open2 := fs.shut()
	defer open2()
	j, _ := svc.Job(r.st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for svc.status(j).Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the unit did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stream's headers go out with its first batch, so the GET
	// itself waits on the gate too.
	lines := make(chan Event, 8)
	go func() {
		defer close(lines)
		resp, err := http.Get(cl.Base + "/api/v1/campaigns/" + r.st.ID + "/events")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e Event
			if json.Unmarshal(sc.Bytes(), &e) == nil {
				lines <- e
			}
		}
	}()
	held(t, fs, lines, "an /events line arrived")
	open2()
	var states []string
	for e := range lines {
		states = append(states, e.State)
	}
	if len(states) != 2 || states[1] != StateDone {
		t.Fatalf("events %v, want running then done", states)
	}
}

// TestFailedJobRecordRejects: when the job record's fsync fails, the
// submission and a repeat of it that arrived during the wait both
// answer 503, the job is never listed, and its idempotency key and
// quota are free for the retry.
func TestFailedJobRecordRejects(t *testing.T) {
	plan := &faultfs.Plan{Faults: []faultfs.Fault{{Kind: faultfs.SyncFail, Op: 0}}}
	fs := newGateFS(faultfs.New(nil, plan, t.Logf))
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{Workers: 1, TenantCap: 1})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{MaxInsts: testMaxInsts, IdempotencyKey: "once",
		Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}}

	errs := make(chan error, 2)
	open := fs.shut()
	defer open()
	go func() { _, err := cl.Submit(req); errs <- err }()
	held(t, fs, errs, "the submission was answered")
	go func() { _, err := cl.Submit(req); errs <- err }()
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(svc.Registry(), "service_idempotent_replays_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the repeat submission never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	open()
	for i := 0; i < 2; i++ {
		var se *statusError
		if err := <-errs; !errors.As(err, &se) || se.code != http.StatusServiceUnavailable {
			t.Fatalf("submission with a failed job record: %v, want 503", err)
		}
	}
	var jobs []JobStatus
	if err := cl.do(http.MethodGet, "/api/v1/campaigns", nil, &jobs); err != nil || len(jobs) != 0 {
		t.Fatalf("list after the failed submission: %+v, %v; want no jobs", jobs, err)
	}

	// The retry takes the released key and quota and is accepted.
	st, err := cl.Submit(req)
	if err != nil {
		t.Fatalf("retry after the failed job record: %v", err)
	}
	if err := cl.do(http.MethodGet, "/api/v1/campaigns", nil, &jobs); err != nil || len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("list after the retry: %+v, %v; want just %s", jobs, err, st.ID)
	}
}

// failOnceFS fails the first journal fsync after arm, as a faultfs
// SyncFail does; a test arms it once the batch it aims at is buffered.
type failOnceFS struct {
	store.FS
	armed atomic.Bool
}

func (f *failOnceFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return failOnceFile{File: file, fs: f}, nil
}

type failOnceFile struct {
	store.File
	fs *failOnceFS
}

func (f failOnceFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		return faultfs.ErrInjected
	}
	return f.File.Sync()
}

// TestFailedEventBatchStillServes: when the fsync of a job's final
// batch (its last done event and its end record) fails, the job's
// replies are still served, every time they are asked for: status,
// results, cancel, /events, Wait and an idempotent repeat of the
// submission. The failure is counted once.
func TestFailedEventBatchStillServes(t *testing.T) {
	fs := &failOnceFS{FS: store.OS()}
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{Workers: 1})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{MaxInsts: testMaxInsts, IdempotencyKey: "final",
		Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}}
	st, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The unit finishes on a local worker, which waits on no fsync, so
	// the final batch sits in the journal's buffer until a reply
	// flushes it: that flush fails.
	j, _ := svc.Job(st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for svc.status(j).State != JobComplete {
		if time.Now().After(deadline) {
			t.Fatal("the job did not complete")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fs.armed.Store(true)

	for i := 0; i < 2; i++ {
		if got, err := cl.Status(st.ID); err != nil || got.State != JobComplete {
			t.Fatalf("status %d: %+v, %v; want complete", i, got, err)
		}
	}
	if fs.armed.Load() {
		t.Fatal("no reply flushed the final batch")
	}
	if res, err := cl.Results(st.ID); err != nil || len(res.Units) != 1 || res.Units[0].State != StateDone {
		t.Fatalf("results: %+v, %v; want the done unit", res, err)
	}
	if got, err := cl.Cancel(st.ID); err != nil || got.State != JobComplete {
		t.Fatalf("cancel: %+v, %v; want the complete job", got, err)
	}
	if got, err := cl.Wait(st.ID); err != nil || got.State != JobComplete {
		t.Fatalf("wait: %+v, %v; want complete", got, err)
	}
	if got, err := cl.Submit(req); err != nil || got.ID != st.ID {
		t.Fatalf("idempotent repeat: %+v, %v; want %s", got, err, st.ID)
	}
	if n := counterValue(svc.Registry(), "service_journal_errors_total"); n != 1 {
		t.Fatalf("service_journal_errors_total = %d, want the one failed batch", n)
	}
}
