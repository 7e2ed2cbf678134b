package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/service/fleet"
)

// A remote lease waits on the queue the way an in-process one does:
// POST /api/v1/lease with a wait_ms holds the request open until a
// unit is queued, the wait passes, Drain begins or the worker hangs up.
// These tests pin each way the wait ends.

// leaseWaitService starts a coordinator-only service behind an
// httptest server whose lease route signals every request it receives.
func leaseWaitService(t *testing.T, cfg Config) (*Service, *Client, *httptest.Server, <-chan struct{}) {
	t.Helper()
	cfg.CoordinatorOnly = true
	svc := New(cfg, nil)
	h := svc.Handler()
	arrived := make(chan struct{}, 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/lease" {
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Drain)
	return svc, &Client{Base: srv.URL, Tenant: "test"}, srv, arrived
}

// leaseAnswer is one raw lease exchange's outcome.
type leaseAnswer struct {
	code  int
	grant fleet.LeaseGrant
	err   error
}

// leaseWaiting posts a lease request asking the coordinator to wait
// up to waitMS, and delivers the answer on the returned channel. The
// body is spelled out so the request reads the same to any coordinator.
func leaseWaiting(base, worker string, waitMS int) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"worker": worker, "wait_ms": waitMS})
		resp, err := http.Post(base+"/api/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- leaseAnswer{err: err}
			return
		}
		defer resp.Body.Close()
		a := leaseAnswer{code: resp.StatusCode}
		if a.code == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.grant)
		}
		out <- a
	}()
	return out
}

func oneUnitCampaign() CampaignRequest {
	cfg := cpu.Conventional(2, 2)
	return CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	}
}

// An idle worker whose Poll is a minute still picks up a job submitted
// after its first lease request: that request is waiting on the queue,
// not answered at once and followed by a minute's sleep.
func TestIdleWorkerWakesOnSubmit(t *testing.T) {
	_, client, _, arrived := leaseWaitService(t, Config{})
	startWorker(t, client, &fleet.Worker{
		ID:   "idle",
		Poll: time.Minute,
		Execute: func(context.Context, fleet.LeaseGrant) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		},
	})
	<-arrived
	time.Sleep(50 * time.Millisecond) // a coordinator that answers at once has answered by now

	status, err := client.Submit(oneUnitCampaign())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan JobStatus, 1)
	go func() {
		final, _ := client.Wait(status.ID)
		done <- final
	}()
	select {
	case final := <-done:
		if final.State != JobComplete {
			t.Fatalf("job ended %+v, want complete", final)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job submitted to an idle worker did not complete within 5s")
	}
}

// A lease request waiting on an empty queue ends promptly when Drain
// begins, so the server closes without waiting out the lease's wait.
func TestDrainEndsLeaseWait(t *testing.T) {
	svc, client, srv, arrived := leaseWaitService(t, Config{})
	answer := leaseWaiting(client.Base, "w", 20_000)
	<-arrived
	select {
	case a := <-answer:
		t.Fatalf("lease on an empty queue answered %d (err %v) at once, want it to wait", a.code, a.err)
	case <-time.After(100 * time.Millisecond):
	}

	start := time.Now()
	svc.Drain()
	select {
	case a := <-answer:
		if a.err != nil || a.code != http.StatusServiceUnavailable {
			t.Fatalf("lease ended by Drain answered %d (err %v), want 503", a.code, a.err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("lease took %v to notice Drain", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease request still waiting 5s after Drain")
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung after Drain")
	}
}

// A unit whose lease expires goes back on the queue and wakes a worker
// already waiting there.
func TestRequeueWakesWaitingLease(t *testing.T) {
	svc, client, _, arrived := leaseWaitService(t, Config{LeaseTTL: 50})
	status, err := client.Submit(oneUnitCampaign())
	if err != nil {
		t.Fatal(err)
	}
	var g1 fleet.LeaseGrant
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "zombie"}, &g1); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	<-arrived

	answer := leaseWaiting(client.Base, "heir", 20_000)
	<-arrived
	time.Sleep(50 * time.Millisecond) // let the request reach the wait
	svc.TickLeases(100)
	select {
	case a := <-answer:
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("waiting lease answered %d (err %v), want the requeued unit", a.code, a.err)
		}
		if a.grant.Job != status.ID || a.grant.Unit != g1.Unit || a.grant.Token <= g1.Token {
			t.Fatalf("waiting lease got %s[%d] token %d, want %s[%d] above token %d",
				a.grant.Job, a.grant.Unit, a.grant.Token, status.ID, g1.Unit, g1.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requeued unit did not wake the waiting lease within 5s")
	}
}
