package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
)

// postJSON is the raw-HTTP half of the lease tests: it plays the
// worker's side of the wire protocol without a fleet.Worker, so tests
// can hold tokens hostage, replay them stale, and hit every status
// code deliberately.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestFleetEndToEnd runs a coordinator-only service against a real
// fleet.Worker executing through the shared dispatch: the whole
// campaign must flow through leases (no in-process workers exist to
// pick it up) and finish byte-identical to a local run.
func TestFleetEndToEnd(t *testing.T) {
	svc, client, st := testService(t, Config{
		CoordinatorOnly: true,
		LeaseTTL:        10_000, // no ticks run here, so leases cannot expire anyway
	}, true)

	workloads := testWorkloads(t, "li")
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	req := CampaignRequest{MaxInsts: testMaxInsts, Units: SimGrid(workloads, configs)}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fleet.Worker{
		Coordinator: client.Base,
		ID:          "w-e2e",
		Execute:     (&Runners{Store: st}).Execute,
		RenewEvery:  50 * time.Millisecond,
		Poll:        10 * time.Millisecond,
		Parallel:    2,
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(ctx) }()

	status, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator marks the job complete before the worker has read
	// the answer to its last completion. Give the worker time to count
	// that answer before shutting it down, or the count below races the
	// cancel.
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed < uint64(len(req.Units)) &&
		time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if final.State != JobComplete {
		t.Fatalf("job ended %s, want %s (%d failed)", final.State, JobComplete, final.Failed)
	}

	resp, err := client.Results(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	results, err := decodeSimResults(resp, len(req.Units))
	if err != nil {
		t.Fatal(err)
	}
	fleetReport := experiments.RenderFigure8(
		experiments.AssembleFigure8(workloads, configs, results), configs)

	r := experiments.NewRunner()
	r.Workloads = workloads
	r.MaxInsts = testMaxInsts
	rows, err := r.FigureWithConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	if local := experiments.RenderFigure8(rows, configs); fleetReport != local {
		t.Fatalf("fleet report differs from local run:\n%s\n--- vs ---\n%s", fleetReport, local)
	}

	reg := svc.Registry()
	if n := counterValue(reg, "service_leases_granted_total"); n < uint64(len(req.Units)) {
		t.Fatalf("granted %d leases, want >= %d", n, len(req.Units))
	}
	if n := counterValue(reg, "service_leases_fenced_rejects_total"); n != 0 {
		t.Fatalf("unexpected fenced rejects: %d", n)
	}
	if s := w.Stats(); s.Completed != uint64(len(req.Units)) {
		t.Fatalf("worker completed %d, want %d", s.Completed, len(req.Units))
	}
}

// TestFleetExpiryRequeueAndFencing drives the zombie-writer scenario
// by hand: a granted lease expires (the worker went dark), the unit is
// regranted to a second worker, and the first worker's late completion
// must bounce with 409 while the second worker's lands.
func TestFleetExpiryRequeueAndFencing(t *testing.T) {
	svc, client, _ := testService(t, Config{CoordinatorOnly: true, LeaseTTL: 50}, false)

	workloads := testWorkloads(t, "li")
	req := CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    SimGrid(workloads, []cpu.Config{cpu.Conventional(2, 2)}),
	}
	status, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	var g1 fleet.LeaseGrant
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "zombie"}, &g1); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}

	// The queue is empty now: a second worker polls and gets 204.
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "heir"}, nil); code != http.StatusNoContent {
		t.Fatalf("lease on empty queue: HTTP %d, want 204", code)
	}

	// The zombie stops heartbeating; the clock rolls past its deadline
	// and the unit goes back on the queue.
	svc.TickLeases(100)
	if n := counterValue(svc.Registry(), "service_leases_expired_total"); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}

	var g2 fleet.LeaseGrant
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "heir"}, &g2); code != http.StatusOK {
		t.Fatalf("re-lease: HTTP %d", code)
	}
	if g2.Token <= g1.Token {
		t.Fatalf("regrant token %d not above expired token %d", g2.Token, g1.Token)
	}
	if g2.Job != g1.Job || g2.Unit != g1.Unit {
		t.Fatalf("regrant delivered %s[%d], want the expired unit %s[%d]", g2.Job, g2.Unit, g1.Job, g1.Unit)
	}

	// The zombie wakes up and renews, then completes — both with its
	// dead lease. Renew 404s (the lease is gone), completion too, and
	// the fenced-rejects counter records the zombie writer.
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g1.LeaseID+"/renew",
		fleet.RenewRequest{Worker: "zombie", Token: g1.Token}, nil); code != http.StatusNotFound {
		t.Fatalf("zombie renew: HTTP %d, want 404", code)
	}
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g1.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "zombie", Token: g1.Token, State: StateDone,
			Result: json.RawMessage(`{"bogus":true}`)}, nil); code != http.StatusNotFound {
		t.Fatalf("zombie complete: HTTP %d, want 404", code)
	}
	// A forged completion against the live lease with the stale token is
	// the 409 path: the lease exists, the fence says no.
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g2.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "zombie", Token: g1.Token, State: StateDone,
			Result: json.RawMessage(`{"bogus":true}`)}, nil); code != http.StatusConflict {
		t.Fatalf("stale-token complete: HTTP %d, want 409", code)
	}
	if n := counterValue(svc.Registry(), "service_leases_fenced_rejects_total"); n != 2 {
		t.Fatalf("fenced rejects %d, want 2", n)
	}

	// A malformed completion must not consume the live lease.
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g2.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "heir", Token: g2.Token, State: "sideways"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad-state complete: HTTP %d, want 400", code)
	}

	// The heir's genuine completion lands and finishes the job.
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g2.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "heir", Token: g2.Token, State: StateDone,
			Result: json.RawMessage(`{"ipc":1}`)}, nil); code != http.StatusOK {
		t.Fatalf("heir complete: HTTP %d, want 200", code)
	}
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobComplete || final.Done != 1 {
		t.Fatalf("job ended %s with %d done, want %s/1", final.State, final.Done, JobComplete)
	}
}

// TestFleetRecoverRestoresFence crashes the coordinator (new Service
// over the same journal) after a grant and verifies the restart's
// fencing tokens stay above every token the dead process handed out —
// the invariant that makes pre-crash zombies rejectable at all.
func TestFleetRecoverRestoresFence(t *testing.T) {
	dir := t.TempDir()
	fs := store.OS()
	jrn1, err := journal.OpenFS(fs, filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Config{CoordinatorOnly: true, LeaseTTL: 50, Journal: jrn1}, nil)
	if _, err := svc1.Recover(); err != nil {
		t.Fatal(err)
	}
	workloads := testWorkloads(t, "li")
	req := CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    SimGrid(workloads, []cpu.Config{cpu.Conventional(2, 2)}),
	}
	status, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := svc1.lease(context.Background(), "doomed", 0, false)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v (grant %v)", err, g1)
	}
	jrn1.Close() // the crash: nothing else from svc1 reaches the log

	jrn2, err := journal.OpenFS(fs, filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{CoordinatorOnly: true, LeaseTTL: 50, Journal: jrn2}, nil)
	t.Cleanup(svc2.Drain)
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 {
		t.Fatalf("recovery requeued %d units, want 1", stats.Requeued)
	}

	g2, err := svc2.lease(context.Background(), "survivor", 0, false)
	if err != nil || g2 == nil {
		t.Fatalf("post-restart lease: %v (grant %v)", err, g2)
	}
	if g2.Token <= g1.Token {
		t.Fatalf("post-restart token %d not above pre-crash token %d", g2.Token, g1.Token)
	}
	if g2.Job != status.ID || g2.Unit != g1.Unit {
		t.Fatalf("restart re-delivered %s[%d], want %s[%d]", g2.Job, g2.Unit, status.ID, g1.Unit)
	}

	// The pre-crash worker publishes into the restarted coordinator:
	// rejected, counted.
	_, err = svc2.completeLease(context.Background(), g1.LeaseID, fleet.CompleteRequest{
		Worker: "doomed", Token: g1.Token, State: StateDone, Result: json.RawMessage(`{"stale":true}`)}, false)
	if err == nil {
		t.Fatal("stale pre-crash completion was accepted")
	}
	if n := counterValue(svc2.Registry(), "service_leases_fenced_rejects_total"); n != 1 {
		t.Fatalf("fenced rejects %d, want 1", n)
	}
	if _, err := svc2.completeLease(context.Background(), g2.LeaseID, fleet.CompleteRequest{
		Worker: "survivor", Token: g2.Token, State: StateDone, Result: json.RawMessage(`{"ipc":1}`)}, false); err != nil {
		t.Fatalf("survivor completion: %v", err)
	}
}
