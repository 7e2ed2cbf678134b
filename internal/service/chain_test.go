package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// A completion that asks for the worker's next unit gets it in the
// reply, and the completion's final record and the grant's running
// record share one fsync. These tests pin that exchange and each way
// it grants nothing.

// sameUnits is a campaign of n copies of one simulate unit.
func sameUnits(n int) CampaignRequest {
	cfg := cpu.Conventional(2, 2)
	units := make([]UnitSpec, n)
	for i := range units {
		units[i] = UnitSpec{Kind: KindSimulate, Workload: "li", Config: &cfg}
	}
	return CampaignRequest{MaxInsts: testMaxInsts, Units: units}
}

func waitMS(ms int64) *int64 { return &ms }

// completeAnswer is one raw complete exchange's outcome.
type completeAnswer struct {
	code  int
	reply fleet.CompleteReply
	err   error
}

// completing posts a completion and delivers the answer on the
// returned channel.
func completing(base, leaseID string, req fleet.CompleteRequest) <-chan completeAnswer {
	out := make(chan completeAnswer, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/api/v1/lease/"+leaseID+"/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- completeAnswer{err: err}
			return
		}
		defer resp.Body.Close()
		a := completeAnswer{code: resp.StatusCode}
		if a.code == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.reply)
		}
		out <- a
	}()
	return out
}

// One remote worker running units back to back makes one lease
// request in all, and each unit after the first costs one journal
// fsync: the completion's reply carries the next grant, and both of
// their records are made durable together.
func TestChainedGrantOneFsyncPerUnit(t *testing.T) {
	const n = 6
	fs := &writeLogFS{FS: store.OS()}
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{CoordinatorOnly: true})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	var leases atomic.Int64
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/lease" {
			leases.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	if _, err := cl.Submit(sameUnits(n)); err != nil {
		t.Fatal(err)
	}

	// Snapshots taken as the first and the last unit start: between
	// them, units 1..n-1 completed and units 2..n were granted.
	var execs atomic.Int64
	var syncs0, syncsN, leasesN int64
	last := make(chan struct{})
	startWorker(t, &Client{Base: srv.URL}, &fleet.Worker{
		ID:         "w",
		Poll:       2 * time.Second,
		RenewEvery: time.Minute,
		Execute: func(context.Context, fleet.LeaseGrant) (json.RawMessage, error) {
			switch execs.Add(1) {
			case 1:
				syncs0 = fs.syncs.Load()
			case n:
				syncsN, leasesN = fs.syncs.Load(), leases.Load()
				close(last)
			}
			return json.RawMessage(`{}`), nil
		},
	})
	select {
	case <-last:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d units ran within 10s", execs.Load(), n)
	}
	if leasesN != 1 {
		t.Errorf("%d lease requests for %d units, want 1: every later grant rides a completion", leasesN, n)
	}
	if got := syncsN - syncs0; got != n-1 {
		t.Errorf("%d journal fsyncs for the %d units after the first, want %d", got, n-1, n-1)
	}
}

// With the journal's fsyncs held, a completion's reply and the grant it
// carries stay in the coordinator; both follow once the fsync goes
// through, and the completion's final record and the grant's running
// record reach the segment in one write.
func TestChainedGrantWaitsForDurableRecords(t *testing.T) {
	logFS := &writeLogFS{FS: store.OS()}
	fs := newGateFS(logFS)
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{CoordinatorOnly: true})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(sameUnits(2)); err != nil {
		t.Fatal(err)
	}
	var g0 fleet.LeaseGrant
	if code := postJSON(t, cl.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g0); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}

	open := fs.shut()
	defer open()
	answer := completing(cl.Base, g0.LeaseID, fleet.CompleteRequest{Worker: "w", Token: g0.Token,
		State: StateDone, Result: json.RawMessage(`{"ipc":1}`), NextWaitMS: waitMS(0)})
	held(t, fs, answer, "the complete reply arrived")
	open()
	a := <-answer
	if a.err != nil || a.code != http.StatusOK || a.reply.Status != "accepted" || a.reply.Grant == nil {
		t.Fatalf("complete: HTTP %d, %+v, %v; want accepted with a grant", a.code, a.reply, a.err)
	}
	g1 := *a.reply.Grant
	if g1.Job != g0.Job || g1.Unit == g0.Unit || g1.Token <= g0.Token {
		t.Fatalf("chained grant %s[%d] token %d, want the job's other unit above token %d",
			g1.Job, g1.Unit, g1.Token, g0.Token)
	}

	logFS.mu.Lock()
	defer logFS.mu.Unlock()
	for _, w := range logFS.writes {
		var done, running bool
		store.ScanBytes(w, func(f store.Frame) {
			var r journal.Record
			if json.Unmarshal(f.Payload, &r) != nil || r.T != journal.TypeEvent {
				return
			}
			done = done || r.Unit == g0.Unit && r.State == StateDone
			running = running || r.Unit == g1.Unit && r.State == StateRunning && r.Token == g1.Token
		})
		if done || running {
			if !done || !running {
				t.Fatalf("unit %d's done record and the grant's running record are in separate writes", g0.Unit)
			}
			return
		}
	}
	t.Fatal("no write holds the completion's done record")
}

// When the fsync covering a completion and its chained grant fails,
// the completion is still accepted, with no grant: the grant is
// retracted, its token burned, its unit requeued, and the half-open
// breaker probe it carried re-armed for the workload's next unit.
func TestChainedGrantSyncFailRetracts(t *testing.T) {
	// Fsyncs 0 and 1 are the job record's and the first grant's; 2
	// covers the completion and its chained grant.
	plan := &faultfs.Plan{Faults: []faultfs.Fault{{Kind: faultfs.SyncFail, Op: 2}}}
	fs := faultfs.New(nil, plan, t.Logf)
	svc, cl := journaledServiceFS(t, fs, t.TempDir(), Config{CoordinatorOnly: true, BreakerThreshold: 1, BreakerCooldown: 1})
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	// Unit 0 runs another workload, so its success does not close the
	// breaker of units 1 and 2.
	req := sameUnits(3)
	other := cpu.Conventional(2, 2)
	req.Units[0] = UnitSpec{Kind: KindSimulate, Workload: "go", Config: &other}
	st, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Job(st.ID)
	probed := j.units[1].spec.Workload
	// Trip the breaker and spend its one-arrival cooldown: the next
	// grant of the workload is the half-open probe.
	svc.breaker.Record(probed, errors.New("simulator crashed"))
	if svc.breaker.Allow(probed) == nil {
		t.Fatal("the tripped breaker let an arrival through during its cooldown")
	}

	var g0 fleet.LeaseGrant
	if code := postJSON(t, cl.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g0); code != http.StatusOK || g0.Unit != 0 {
		t.Fatalf("lease: HTTP %d, unit %d; want unit 0", code, g0.Unit)
	}
	a := <-completing(cl.Base, g0.LeaseID, fleet.CompleteRequest{Worker: "w", Token: g0.Token,
		State: StateDone, Result: json.RawMessage(`{"ipc":1}`), NextWaitMS: waitMS(0)})
	if a.err != nil || a.code != http.StatusOK || a.reply.Status != "accepted" || a.reply.Grant != nil {
		t.Fatalf("complete over a failed fsync: HTTP %d, %+v, %v; want accepted with no grant", a.code, a.reply, a.err)
	}
	if fs.Fired() != 1 {
		t.Fatalf("%d faults fired, want the chained batch's fsync", fs.Fired())
	}
	if got := svc.status(j); got.Queued != 2 || got.Running != 0 {
		t.Fatalf("after the retracted grant: %+v, want units 1 and 2 queued", got)
	}

	// The probe went to unit 1 and came back: unit 2 is next in the
	// queue, and it is granted as the re-armed probe under a token
	// above the burned one.
	var g2 fleet.LeaseGrant
	if code := postJSON(t, cl.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g2); code != http.StatusOK {
		t.Fatalf("lease after the retraction: HTTP %d", code)
	}
	if g2.Unit != 2 || g2.Token != g0.Token+2 {
		t.Fatalf("lease after the retraction: unit %d token %d; want unit 2 as the probe, token %d past the burned %d",
			g2.Unit, g2.Token, g0.Token+2, g0.Token+1)
	}
}

// A fenced completion grants nothing, and neither does one that
// arrives once Drain has begun, even with a unit queued.
func TestNoChainedGrantOnFenceOrDrain(t *testing.T) {
	t.Run("fenced", func(t *testing.T) {
		svc, cl, _ := testService(t, Config{CoordinatorOnly: true}, false)
		if _, err := cl.Submit(sameUnits(2)); err != nil {
			t.Fatal(err)
		}
		var g0 fleet.LeaseGrant
		if code := postJSON(t, cl.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g0); code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		a := <-completing(cl.Base, g0.LeaseID, fleet.CompleteRequest{Worker: "zombie", Token: g0.Token - 1,
			State: StateDone, Result: json.RawMessage(`{}`), NextWaitMS: waitMS(0)})
		if a.err != nil || a.code != http.StatusConflict {
			t.Fatalf("stale-token completion: HTTP %d (err %v), want 409", a.code, a.err)
		}
		if n := counterValue(svc.Registry(), "service_leases_granted_total"); n != 1 {
			t.Fatalf("%d grants, want only the first: a fenced completion grants nothing", n)
		}
	})

	t.Run("drain", func(t *testing.T) {
		svc, cl, _ := testService(t, Config{Workers: 1}, false)
		entered, release := make(chan struct{}), make(chan struct{})
		var first, released sync.Once
		svc.testHook = func(*unit, int) error {
			first.Do(func() {
				close(entered)
				<-release
			})
			return nil
		}
		open := func() { released.Do(func() { close(release) }) }
		defer open()
		if _, err := cl.Submit(sameUnits(3)); err != nil {
			t.Fatal(err)
		}
		<-entered // the in-process worker holds unit 0 until release
		g1, err := svc.lease(context.Background(), "remote", 0, false)
		if err != nil || g1 == nil {
			t.Fatalf("remote lease: %+v, %v", g1, err)
		}
		drained := make(chan struct{})
		go func() {
			svc.Drain()
			close(drained)
		}()
		for svc.Ready() {
			time.Sleep(time.Millisecond)
		}
		// Drain waits on the in-process worker, so the remote lease is
		// still live and unit 2 still queued.
		next, err := svc.completeLease(context.Background(), g1.LeaseID, fleet.CompleteRequest{Worker: "remote",
			Token: g1.Token, State: StateDone, Result: json.RawMessage(`{}`), NextWaitMS: waitMS(1000)}, false)
		if err != nil || next != nil {
			t.Fatalf("completion during Drain: grant %+v, err %v; want accepted with no grant", next, err)
		}
		open()
		<-drained
		if n := counterValue(svc.Registry(), "service_leases_granted_total"); n != 2 {
			t.Fatalf("%d grants, want units 0 and 1 only", n)
		}
	})
}
