package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
)

// journaledService builds a service over a journal (and store) rooted
// at dir, serving its handler. Recover is left to the caller so tests
// can observe the not-ready window.
func journaledService(t *testing.T, dir string, cfg Config) (*Service, *Client) {
	t.Helper()
	return journaledServiceFS(t, store.OS(), dir, cfg)
}

// journaledServiceFS is journaledService with the journal on fs.
func journaledServiceFS(t *testing.T, fs store.FS, dir string, cfg Config) (*Service, *Client) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	jrn, err := journal.OpenFS(fs, filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jrn
	// Cleanups run last-in first-out: the journal closes after Drain has
	// journaled the units it interrupts.
	t.Cleanup(func() { jrn.Close() })
	svc := New(cfg, st)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Drain)
	return svc, &Client{Base: srv.URL, Tenant: "test"}
}

// appendSync writes recs to jrn and waits for them to be durable.
func appendSync(jrn *journal.Journal, recs ...journal.Record) error {
	pos, err := jrn.Write(recs...)
	if err != nil {
		return err
	}
	return jrn.Sync(pos)
}

// writeLogFS keeps a copy of every write made through the files it
// opens, and counts their fsyncs.
type writeLogFS struct {
	store.FS
	syncs atomic.Int64

	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLogFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	f, err := c.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return writeLogFile{File: f, fs: c}, nil
}

type writeLogFile struct {
	store.File
	fs *writeLogFS
}

func (f writeLogFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes = append(f.fs.writes, bytes.Clone(p))
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f writeLogFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestFinishJournalsEndWithLastEvent: a finished job's last unit event
// and its end record reach the segment in one write, the end record
// second, and replay sees the end record right after that event.
func TestFinishJournalsEndWithLastEvent(t *testing.T) {
	dir := t.TempDir()
	fs := &writeLogFS{FS: store.OS()}
	svc, cl := journaledServiceFS(t, fs, dir, Config{Workers: 2})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Run(CampaignRequest{MaxInsts: testMaxInsts,
		Workloads: []string{"130.li"}, Configs: []string{"(2+0)", "(3+3)"}})
	if err != nil {
		t.Fatal(err)
	}
	// One job record, then a running and a done event per unit, then
	// the end record.
	records := 1 + 2*len(resp.Units) + 1
	if n := svc.jrn.Appends(); n != records {
		t.Fatalf("journal holds %d records, want %d", n, records)
	}
	fs.mu.Lock()
	var endWrite []byte
	for _, w := range fs.writes {
		if bytes.Contains(w, []byte(`"t":"end"`)) {
			endWrite = w
		}
	}
	fs.mu.Unlock()
	var lines []string
	store.ScanBytes(endWrite, func(f store.Frame) { lines = append(lines, string(f.Payload)) })
	if len(lines) < 2 || !strings.Contains(lines[len(lines)-1], `"t":"end"`) ||
		!strings.Contains(lines[len(lines)-2], `"state":"done"`) {
		t.Fatalf("the end record's write is %q; want it to end with the last done event, then the end record", endWrite)
	}

	jrn, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jrn.Close()
	var recs []journal.Record
	if _, err := jrn.Replay(func(r journal.Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("replayed %d records", len(recs))
	}
	last, end := recs[len(recs)-2], recs[len(recs)-1]
	if last.T != journal.TypeEvent || last.State != StateDone || end.T != journal.TypeEnd || end.State != JobComplete {
		t.Fatalf("journal ends %+v, %+v; want the last done event, then the end record", last, end)
	}
}

func getStatus(t *testing.T, base, path string) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReadyzWindows covers both 503 windows: before journal replay has
// finished and after drain begins. /healthz stays 200 throughout —
// the process is alive in both windows, it just must not be routed to.
func TestReadyzWindows(t *testing.T) {
	svc, cl := journaledService(t, t.TempDir(), Config{Workers: 1})

	// Window 1: journal not yet replayed.
	if code := getStatus(t, cl.Base, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Recover = %d, want 503", code)
	}
	if code := getStatus(t, cl.Base, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before Recover = %d, want 200", code)
	}
	if _, err := svc.Submit(CampaignRequest{Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Submit before Recover: %v, want ErrNotReady", err)
	}

	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if code := getStatus(t, cl.Base, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after Recover = %d, want 200", code)
	}

	// Window 2: draining.
	svc.Drain()
	if code := getStatus(t, cl.Base, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code := getStatus(t, cl.Base, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}
}

// TestJournalRecoveryRestoresFinishedJob runs a campaign to completion
// under generation 1, then rebuilds the service from the journal alone
// and checks the job is fully there: terminal state, per-unit results,
// the event stream with its original sequence numbers, and the
// idempotency key still routing to it. The same grid resubmitted under
// a new key then completes inside Submit from the replayed results, in
// one journal write, and a third generation replays that job too.
func TestJournalRecoveryRestoresFinishedJob(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{
		MaxInsts:       testMaxInsts,
		IdempotencyKey: "recover-1",
		Workloads:      []string{"130.li"},
		Configs:        []string{"(2+0)", "(3+3)"},
	}

	svc1, cl1 := journaledService(t, dir, Config{Workers: 2})
	if _, err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	resp1, err := cl1.Run(CampaignRequest{
		MaxInsts: req.MaxInsts, IdempotencyKey: req.IdempotencyKey,
		Workloads: req.Workloads, Configs: req.Configs,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := resp1.Status.ID
	var events1 []Event
	j1, _ := svc1.Job(id)
	events1, _, _ = j1.eventsFrom(0)
	svc1.Drain()

	// Generation 2: same journal dir, fresh everything else.
	fs := &writeLogFS{FS: store.OS()}
	svc2, cl2 := journaledServiceFS(t, fs, dir, Config{Workers: 2})
	rs, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != 1 || rs.Finished != 1 || rs.Requeued != 0 {
		t.Fatalf("recover stats %+v, want 1 job, 1 finished, 0 requeued", rs)
	}
	status, err := cl2.Status(id)
	if err != nil {
		t.Fatalf("recovered job not served: %v", err)
	}
	if status.State != JobComplete || status.Done != 2 {
		t.Fatalf("recovered status %+v, want complete with 2 done", status)
	}
	resp2, err := cl2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range resp2.Units {
		if u.State != StateDone || len(u.Result) == 0 {
			t.Fatalf("recovered unit %d: state %s, %d result bytes", i, u.State, len(u.Result))
		}
	}
	enc1, _ := json.Marshal(resp1.Units)
	enc2, _ := json.Marshal(resp2.Units)
	if string(enc1) != string(enc2) {
		t.Fatalf("recovered results differ:\n%s\n--- vs ---\n%s", enc1, enc2)
	}

	// The event stream replays with its original sequence numbers, so a
	// client that saw N events resumes at ?from=N exactly.
	j2, ok := svc2.Job(id)
	if !ok {
		t.Fatal("job missing after recovery")
	}
	events2, _, terminal := j2.eventsFrom(0)
	if !terminal {
		t.Fatal("recovered job not terminal in event stream")
	}
	if len(events1) != len(events2) {
		t.Fatalf("recovered %d events, want %d", len(events2), len(events1))
	}
	for i := range events1 {
		if events1[i].Seq != events2[i].Seq || events1[i].State != events2[i].State || events1[i].Unit != events2[i].Unit {
			t.Fatalf("event %d differs: %+v vs %+v", i, events1[i], events2[i])
		}
	}

	// The idempotency key survives the restart: a re-POST returns the
	// original, finished job.
	again, err := cl2.Submit(CampaignRequest{
		MaxInsts: req.MaxInsts, IdempotencyKey: req.IdempotencyKey,
		Workloads: req.Workloads, Configs: req.Configs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != id {
		t.Fatalf("idempotent re-POST after restart returned %s, want %s", again.ID, id)
	}

	// The same grid under a new key is answered from the replayed results
	// at admission: the reply is already complete, nothing is leased, and
	// the job record, its done events and its end record reach the
	// segment in one write.
	fs.mu.Lock()
	before := len(fs.writes)
	fs.mu.Unlock()
	repeat, err := cl2.Submit(CampaignRequest{
		MaxInsts: req.MaxInsts, IdempotencyKey: "recover-2",
		Workloads: req.Workloads, Configs: req.Configs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.State != JobComplete || repeat.Done != repeat.Units || repeat.Deduped != repeat.Units {
		t.Fatalf("resubmitted grid's reply %+v, want complete with every unit done and deduped", repeat)
	}
	if n := counterValue(svc2.Registry(), "service_leases_granted_total"); n != 0 {
		t.Fatalf("generation 2 granted %d leases, want 0", n)
	}
	fs.mu.Lock()
	writes := fs.writes[before:]
	fs.mu.Unlock()
	if len(writes) != 1 {
		t.Fatalf("the resubmission made %d segment writes, want 1", len(writes))
	}
	var lines []string
	store.ScanBytes(writes[0], func(f store.Frame) { lines = append(lines, string(f.Payload)) })
	if len(lines) != 2+len(req.Configs) || !strings.Contains(lines[0], `"t":"job"`) ||
		!strings.Contains(lines[len(lines)-1], `"t":"end"`) {
		t.Fatalf("the resubmission's write is %q; want the job record, a done event per unit, then the end record", writes[0])
	}
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.Contains(l, `"state":"done"`) || !strings.Contains(l, `"deduped":true`) {
			t.Fatalf("the resubmission's write holds %q; want a deduped done event", l)
		}
	}
	resp3, err := cl2.Results(repeat.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range resp3.Units {
		if !bytes.Equal(u.Result, resp1.Units[i].Result) {
			t.Fatalf("answered unit %d: result %s, want generation 1's %s", i, u.Result, resp1.Units[i].Result)
		}
	}
	jr, _ := svc2.Job(repeat.ID)
	eventsR, _, _ := jr.eventsFrom(0)
	svc2.Drain()

	// Generation 3 replays the answered job with the same events.
	svc3, _ := journaledService(t, dir, Config{Workers: 2})
	if rs, err := svc3.Recover(); err != nil || rs.Jobs != 2 || rs.Finished != 2 || rs.Requeued != 0 {
		t.Fatalf("generation 3 recover stats %+v, err %v; want 2 jobs, 2 finished, 0 requeued", rs, err)
	}
	j3, ok := svc3.Job(repeat.ID)
	if !ok {
		t.Fatal("answered job missing after the second recovery")
	}
	events3, _, terminal := j3.eventsFrom(0)
	if !terminal || len(events3) != len(eventsR) {
		t.Fatalf("generation 3 replayed %d events (terminal %v), want %d", len(events3), terminal, len(eventsR))
	}
	for i := range eventsR {
		if eventsR[i] != events3[i] {
			t.Fatalf("replayed event %d: %+v, want %+v", i, events3[i], eventsR[i])
		}
	}
}

// TestRecoveredResultsAnswerOnlyTheirVersion replays a hand-written
// journal holding one finished job and resubmits its grid under a new
// key. Only when the job record names this code version does its result
// answer the resubmission at admission; a journal of another version,
// or of one that recorded none, leaves the key claimed only, and the
// resubmitted unit is leased to run again, as the store's versioned
// keys would have it.
func TestRecoveredResultsAnswerOnlyTheirVersion(t *testing.T) {
	for _, tc := range []struct {
		name, version string
		answered      bool
	}{
		{"current", experiments.StoreVersion, true},
		{"older", "arl/v0", false},
		{"unversioned", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			req := CampaignRequest{
				MaxInsts:  testMaxInsts,
				Workloads: []string{"130.li"},
				Configs:   []string{"(2+0)"},
			}
			reqEnc, _ := json.Marshal(req)
			result := json.RawMessage(`{"forged":true}`)
			jrn0, err := journal.Open(filepath.Join(dir, "journal"))
			if err != nil {
				t.Fatal(err)
			}
			if err := appendSync(jrn0,
				journal.Record{T: journal.TypeJob, Job: "c0001", Tenant: "test", Req: reqEnc, Version: tc.version},
				journal.Record{T: journal.TypeEvent, Job: "c0001", Seq: 0, Unit: 0, State: StateDone, Result: result},
				journal.Record{T: journal.TypeEnd, Job: "c0001", State: JobComplete},
			); err != nil {
				t.Fatal(err)
			}
			jrn0.Close()

			svc, _ := journaledService(t, dir, Config{CoordinatorOnly: true})
			if rs, err := svc.Recover(); err != nil || rs.Finished != 1 {
				t.Fatalf("recover: stats %+v, err %v; want 1 finished job", rs, err)
			}
			req.IdempotencyKey = "again"
			st, err := svc.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			g, err := svc.lease(context.Background(), "remote", 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if tc.answered {
				if st.State != JobComplete || st.Deduped != 1 || g != nil {
					t.Fatalf("resubmission: status %+v, grant %+v; want complete and deduped, nothing leased", st, g)
				}
				j, _ := svc.Job(st.ID)
				if got := svc.results(j).Units[0].Result; !bytes.Equal(got, result) {
					t.Fatalf("answered result %s, want the replayed %s", got, result)
				}
				return
			}
			if st.State == JobComplete || st.Done != 0 {
				t.Fatalf("resubmission answered from a journal of version %q: %+v", tc.version, st)
			}
			if g == nil || g.Job != st.ID {
				t.Fatalf("resubmitted unit not leased: grant %+v, want one for %s", g, st.ID)
			}
		})
	}
}

// TestJournalRecoveryRequeuesIncompleteUnits hand-writes a journal in
// which one unit finished and the other was mid-run at the crash, then
// recovers: the finished unit must keep its result without
// re-executing, the interrupted one must re-queue (with a fresh queued
// event continuing the sequence numbers) and run to completion.
func TestJournalRecoveryRequeuesIncompleteUnits(t *testing.T) {
	dir := t.TempDir()

	// Forge the dead predecessor's journal.
	cfg, err := ParseConfigName("(2+0)")
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := ParseConfigName("(3+3)")
	if err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{
		MaxInsts: testMaxInsts,
		Units: []UnitSpec{
			{Kind: KindSimulate, Workload: "130.li", Config: &cfg},
			{Kind: KindSimulate, Workload: "130.li", Config: &cfg2},
		},
	}
	reqEnc, _ := json.Marshal(req)
	// A sentinel cycle count no real simulation of this budget can
	// produce: seeing it back from /results proves the unit was served
	// from the journal, not re-executed.
	canned, _ := json.Marshal(cpu.Result{Cycles: 1<<40 + 7})
	jrn0, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journal.Record{
		{T: journal.TypeJob, Job: "c0001", Tenant: "test", IdemKey: "forged", Req: reqEnc},
		{T: journal.TypeEvent, Job: "c0001", Seq: 0, Unit: 0, State: StateRunning},
		{T: journal.TypeEvent, Job: "c0001", Seq: 1, Unit: 0, State: StateDone, Result: canned},
		{T: journal.TypeEvent, Job: "c0001", Seq: 2, Unit: 1, State: StateRunning},
		// ...and here the process died, unit 1 mid-run.
	} {
		if err := appendSync(jrn0, rec); err != nil {
			t.Fatal(err)
		}
	}
	jrn0.Close()

	svc, cl := journaledService(t, dir, Config{Workers: 2})
	rs, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != 1 || rs.Finished != 0 || rs.Requeued != 1 {
		t.Fatalf("recover stats %+v, want 1 job, 0 finished, 1 requeued", rs)
	}
	status, err := cl.Wait("c0001")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobComplete || status.Done != 2 {
		t.Fatalf("recovered job ended %+v, want complete with 2 done", status)
	}
	resp, err := cl.Results("c0001")
	if err != nil {
		t.Fatal(err)
	}
	// Unit 0 keeps the journaled (canned) result — proof it was served
	// from the journal, not re-executed.
	var unit0 cpu.Result
	if err := json.Unmarshal(resp.Units[0].Result, &unit0); err != nil {
		t.Fatal(err)
	}
	if unit0.Cycles != 1<<40+7 {
		t.Fatalf("finished unit re-executed: cycles %d, want the journaled sentinel", unit0.Cycles)
	}
	if resp.Units[1].State != StateDone || len(resp.Units[1].Result) == 0 {
		t.Fatalf("requeued unit: %+v", resp.Units[1])
	}

	// The reset emitted a fresh queued event continuing the sequence:
	// seq 3 = unit 1 back to queued, then its re-run.
	j, _ := svc.Job("c0001")
	events, _, _ := j.eventsFrom(3)
	if len(events) == 0 || events[0].Seq != 3 || events[0].State != StateQueued || events[0].Unit != 1 {
		t.Fatalf("expected seq-3 queued reset event for unit 1, got %+v", events)
	}
}

// Recover queues a backlog larger than QueueCap at once and returns
// with no worker attached: it never waits for queue room, so arld goes
// on to serve (and to handle SIGTERM). Submissions then get 429 until
// workers bring the queue back under the bound.
func TestRecoverDoesNotBlockOnFullQueue(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{
		MaxInsts:  testMaxInsts,
		Workloads: []string{"li", "go"},
		Configs:   []string{"(2+0)", "(2+2)", "(3+3)"},
	}
	reqEnc, _ := json.Marshal(req)
	jrn0, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendSync(jrn0, journal.Record{T: journal.TypeJob, Job: "c0001", Tenant: "test", Req: reqEnc}); err != nil {
		t.Fatal(err)
	}
	jrn0.Close()

	svc, _ := journaledService(t, dir, Config{CoordinatorOnly: true, QueueCap: 2})
	type recovered struct {
		rs  RecoverStats
		err error
	}
	done := make(chan recovered, 1)
	go func() {
		rs, err := svc.Recover()
		done <- recovered{rs, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.rs.Requeued != 6 {
			t.Fatalf("recover: stats %+v, err %v; want 6 requeued", r.rs, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recover still blocked 5s on a backlog of 6 with QueueCap 2 and no worker")
	}
	if !svc.Ready() {
		t.Fatal("service not ready after Recover")
	}
	cfg := cpu.Conventional(2, 2)
	_, err = svc.Submit(CampaignRequest{Tenant: "other", Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission over the recovered backlog: err = %v, want ErrQueueFull", err)
	}
	for i := 0; i < 6; i++ {
		if g, err := svc.lease(context.Background(), "remote", 0, false); err != nil || g == nil || g.Job != "c0001" {
			t.Fatalf("lease %d of the backlog: grant %+v, err %v", i, g, err)
		}
	}
}

// TestIdempotencyKeysAreTenantScoped: the same key from two tenants
// must create two jobs — one tenant cannot read another's campaign by
// guessing keys.
func TestIdempotencyKeysAreTenantScoped(t *testing.T) {
	svc, _, _ := testService(t, Config{Workers: 1}, false)
	hold := make(chan struct{})
	defer close(hold)
	svc.testHook = func(*unit, int) error { <-hold; return nil }

	req := CampaignRequest{
		MaxInsts: testMaxInsts, IdempotencyKey: "shared-key",
		Workloads: []string{"130.li"}, Configs: []string{"(2+0)"},
	}
	reqA := req
	reqA.Tenant = "alpha"
	a1, err := svc.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := svc.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID != a2.ID {
		t.Fatalf("same tenant, same key: jobs %s and %s", a1.ID, a2.ID)
	}
	reqB := req
	reqB.Tenant = "beta"
	b, err := svc.Submit(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == a1.ID {
		t.Fatalf("tenants alpha and beta shared job %s through one key", b.ID)
	}
}

// TestSlowEventSubscriberDropped attaches a subscriber that never
// reads, floods the stream past the socket buffers, and checks the
// write deadline drops it (counter) instead of wedging the handler
// while a healthy subscriber keeps streaming.
func TestSlowEventSubscriberDropped(t *testing.T) {
	svc, cl, _ := testService(t, Config{
		Workers: 2, QueueCap: 2048, EventWriteTimeout: 150 * time.Millisecond,
	}, false)
	// Every unit fails instantly with a fat error payload — event
	// volume without simulation cost. The last unit blocks forever so
	// the job stays non-terminal and the handler must keep writing.
	hold := make(chan struct{})
	defer close(hold)
	const units = 600
	payload := strings.Repeat("x", 8192)
	svc.testHook = func(u *unit, _ int) error {
		if u.index == units-1 {
			<-hold
			return nil
		}
		return errors.New(payload)
	}
	cfg, err := ParseConfigName("(2+0)")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]UnitSpec, units)
	for i := range specs {
		specs[i] = UnitSpec{Kind: KindSimulate, Workload: "130.li", Config: &cfg}
	}
	status, err := svc.Submit(CampaignRequest{MaxInsts: testMaxInsts, Units: specs})
	if err != nil {
		t.Fatal(err)
	}

	// The pathological subscriber: a raw connection that sends the
	// request and then never reads a byte.
	conn, err := net.Dial("tcp", strings.TrimPrefix(cl.Base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt := "GET /api/v1/campaigns/" + status.ID + "/events HTTP/1.1\r\nHost: arld\r\n\r\n"
	if _, err := conn.Write([]byte(fmt)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for counterValue(svc.reg, "service_events_dropped_subscribers_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never dropped")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A healthy subscriber attached after the drop still streams: the
	// service, not just the socket, survived the slow client.
	got, err := cl.Status(status.ID)
	if err != nil || got.Failed == 0 {
		t.Fatalf("service wedged after dropping slow subscriber: %+v, %v", got, err)
	}
}

// TestRecoverIgnoresSegmentCopies: a copy of a journal segment kept
// beside it (an operator's backup, or the same number unpadded) is not
// replayed as the segment, so the job whose events live there recovers
// with each event once and its Deduped count unchanged.
func TestRecoverIgnoresSegmentCopies(t *testing.T) {
	req := CampaignRequest{MaxInsts: testMaxInsts, Workloads: []string{"130.li"}, Configs: []string{"(2+0)", "(3+3)"}}
	reqEnc, _ := json.Marshal(req)
	result := json.RawMessage(`{"forged":true}`)
	forge := func(t *testing.T, copies ...string) string {
		dir := t.TempDir()
		jrn, err := journal.Open(filepath.Join(dir, "journal"))
		if err != nil {
			t.Fatal(err)
		}
		jrn.SetSegmentCap(1) // each batch after the first starts a segment
		for _, batch := range [][]journal.Record{
			{{T: journal.TypeJob, Job: "c0001", Tenant: "test", Req: reqEnc, Version: experiments.StoreVersion}},
			{
				{T: journal.TypeEvent, Job: "c0001", Seq: 0, Unit: 0, State: StateDone, Deduped: true, Result: result},
				{T: journal.TypeEvent, Job: "c0001", Seq: 1, Unit: 1, State: StateDone, Deduped: true, Result: result},
			},
			{{T: journal.TypeEnd, Job: "c0001", State: JobComplete}},
		} {
			if err := appendSync(jrn, batch...); err != nil {
				t.Fatal(err)
			}
		}
		jrn.Close()
		seg1 := filepath.Join(dir, "journal", "seg-00000001.log")
		data, err := os.ReadFile(seg1)
		if err != nil || bytes.Count(data, []byte(`"t":"event"`)) != 2 {
			t.Fatalf("segment 1 = %q (%v), want the two events", data, err)
		}
		for _, name := range copies {
			if err := os.WriteFile(filepath.Join(dir, "journal", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	recovered := func(t *testing.T, dir string) ([]Event, JobStatus) {
		svc, _ := journaledService(t, dir, Config{CoordinatorOnly: true})
		if _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		j, ok := svc.Job("c0001")
		if !ok {
			t.Fatal("job c0001 not recovered")
		}
		events, _, _ := j.eventsFrom(0)
		return events, svc.status(j)
	}
	wantEvents, wantStatus := recovered(t, forge(t))
	if len(wantEvents) != 2 || wantStatus.Deduped != 2 || wantStatus.State != JobComplete {
		t.Fatalf("clean journal recovered %+v, status %+v", wantEvents, wantStatus)
	}
	gotEvents, gotStatus := recovered(t, forge(t, "seg-00000001.log.bak", "seg-1.log"))
	if !reflect.DeepEqual(gotEvents, wantEvents) || gotStatus != wantStatus {
		t.Fatalf("with segment copies: events %+v, status %+v; want %+v, %+v",
			gotEvents, gotStatus, wantEvents, wantStatus)
	}
}

// TestRemoteResultCompactedOnce: a fleet completion whose result holds
// spaces and newlines is compacted where it enters the service. It is
// journaled compact, replays to the compact bytes, and reads back from
// /results as the same cpu.Result.
func TestRemoteResultCompactedOnce(t *testing.T) {
	dir := t.TempDir()
	svc, cl := journaledService(t, dir, Config{CoordinatorOnly: true})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(CampaignRequest{MaxInsts: testMaxInsts, Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}})
	if err != nil {
		t.Fatal(err)
	}
	var g fleet.LeaseGrant
	if code := postJSON(t, cl.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	want := cpu.Result{Config: cpu.Decoupled(3, 3), Name: "130.li", Cycles: 1<<40 + 7, Insts: 12345, Forwards: 3}
	indented, _ := json.MarshalIndent(want, "", "  ")
	compact, _ := json.Marshal(want)
	// Built by hand: json.Marshal of a CompleteRequest would compact
	// the result on the client side.
	body := fmt.Sprintf(`{"worker":"w","token":%d,"state":"done","result":%s}`, g.Token, indented)
	resp, err := http.Post(cl.Base+"/api/v1/lease/"+g.LeaseID+"/complete", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: HTTP %d", resp.StatusCode)
	}
	if _, err := cl.Wait(st.ID); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "journal", "seg-*.log"))
	var done []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		store.ScanBytes(data, func(f store.Frame) {
			if rec := string(f.Payload); strings.Contains(rec, `"state":"done"`) {
				done = append(done, rec)
			}
		})
	}
	if len(done) != 1 || !strings.HasSuffix(done[0], `,"result":`+string(compact)+"}") {
		t.Fatalf("done event records %q, want one ending in the compact result %s", done, compact)
	}

	var replayed []json.RawMessage
	if _, err := svc.jrn.Replay(func(r journal.Record) {
		if r.State == StateDone {
			replayed = append(replayed, r.Result)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || !bytes.Equal(replayed[0], compact) {
		t.Fatalf("replayed results %q, want %s", replayed, compact)
	}

	res, err := cl.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got cpu.Result
	if err := json.Unmarshal(res.Units[0].Result, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/results decodes to %+v, want %+v", got, want)
	}
}

// TestRecoverNumbersPastFiveDigitIDs: job IDs outgrow their four-digit
// padding after c9999, and Recover reads the whole number, so a job
// submitted after the restart gets the next ID instead of reusing one.
func TestRecoverNumbersPastFiveDigitIDs(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{MaxInsts: testMaxInsts, Workloads: []string{"130.li"}, Configs: []string{"(2+0)"}}
	reqEnc, _ := json.Marshal(req)
	jrn, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendSync(jrn,
		journal.Record{T: journal.TypeJob, Job: "c9999", Tenant: "test", Req: reqEnc},
		journal.Record{T: journal.TypeJob, Job: "c10000", Tenant: "test", Req: reqEnc},
	); err != nil {
		t.Fatal(err)
	}
	jrn.Close()
	svc, _ := journaledService(t, dir, Config{CoordinatorOnly: true})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "c10001" {
		t.Fatalf("job submitted after recovery is %s, want c10001", st.ID)
	}
}
