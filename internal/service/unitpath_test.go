package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/resilience"
	"repro/internal/service/fleet"
)

// Every unit runs through a lease, whether an in-process worker or a
// remote fleet.Worker executes it, so the unit policy — breaker at
// grant, retry policy in the grant, cancellation between attempts — is
// the same for both. These tests pin that.

// syncBuffer is a log sink safe for the concurrent writers of a
// service and its workers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var backoffLine = regexp.MustCompile(`attempt (\d+) failed \(transient fault\); next try in (\S+)`)

// backoffs extracts the "attempt N failed ...; next try in D" schedule
// from a worker log.
func backoffs(log string) []string {
	var out []string
	for _, m := range backoffLine.FindAllStringSubmatch(log, -1) {
		out = append(out, m[1]+":"+m[2])
	}
	return out
}

// startWorker runs a remote fleet.Worker against client's server until
// the test ends.
func startWorker(t *testing.T, client *Client, w *fleet.Worker) {
	t.Helper()
	w.Coordinator = client.Base
	if w.Poll == 0 {
		w.Poll = 5 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// A transient failure is retried the same number of times, with the
// same backoff schedule, on an in-process worker and on a fleet.Worker
// pulling over HTTP: both run the policy the grant carries, keyed by
// the job's seed and the unit's key.
func TestRetryParityLocalAndRemote(t *testing.T) {
	cfg := cpu.Conventional(2, 2)
	req := CampaignRequest{
		MaxInsts: testMaxInsts, Seed: 7,
		Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	}
	flaky := func(attempt int) error {
		if attempt < 3 {
			return errors.New("transient fault")
		}
		return nil
	}
	run := func(svc *Service, client *Client, log *syncBuffer) (string, uint64, []string) {
		t.Helper()
		resp, err := client.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status.State != JobComplete {
			t.Fatalf("job ended %+v, want complete", resp.Status)
		}
		return string(resp.Units[0].Result), counterValue(svc.Registry(), "service_unit_retries_total"), backoffs(log.String())
	}

	localLog := &syncBuffer{}
	local, localClient, _ := testService(t, Config{Workers: 1, Retries: 3, Log: localLog}, false)
	local.testHook = func(_ *unit, attempt int) error { return flaky(attempt) }
	localResult, localRetries, localSchedule := run(local, localClient, localLog)

	remoteLog := &syncBuffer{}
	remote, remoteClient, _ := testService(t, Config{CoordinatorOnly: true, Retries: 3}, false)
	runners := &Runners{}
	startWorker(t, remoteClient, &fleet.Worker{
		ID: "remote",
		Execute: func(ctx context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
			if err := flaky(fleet.Attempt(ctx)); err != nil {
				return nil, err
			}
			return runners.Execute(ctx, g)
		},
		Log: remoteLog,
	})
	remoteResult, remoteRetries, remoteSchedule := run(remote, remoteClient, remoteLog)

	// The schedule both must follow: resilience.Retry keyed by the
	// request seed and the unit key.
	specs, err := expand(req)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	resilience.Retry{
		Attempts: 3, Seed: req.Seed,
		OnRetry: func(_ string, attempt int, delay time.Duration, _ error) {
			want = append(want, fmt.Sprintf("%d:%v", attempt, delay))
		},
	}.Do(context.Background(), specs[0].key(req.Scale, req.MaxInsts),
		func(context.Context) error { return errors.New("transient fault") })

	if localRetries != 2 || remoteRetries != 2 {
		t.Fatalf("retries: in-process %d, remote %d, want 2 and 2", localRetries, remoteRetries)
	}
	if fmt.Sprint(localSchedule) != fmt.Sprint(want) || fmt.Sprint(remoteSchedule) != fmt.Sprint(want) {
		t.Fatalf("backoff schedules:\nin-process %v\nremote     %v\nwant       %v", localSchedule, remoteSchedule, want)
	}
	if localResult != remoteResult {
		t.Fatal("the retried unit's result differs between in-process and remote execution")
	}
}

// A coordinator-only arld gates a failing workload at lease grant: once
// the workload's breaker trips, its later units fail without being
// handed to any worker.
func TestCoordinatorBreakerGatesLeases(t *testing.T) {
	svc, client, _ := testService(t, Config{CoordinatorOnly: true, BreakerThreshold: 1}, false)
	cfg := cpu.Conventional(2, 2)
	units := make([]UnitSpec, 3)
	for i := range units {
		units[i] = UnitSpec{Kind: KindSimulate, Workload: "li", Config: &cfg}
	}
	status, err := client.Submit(CampaignRequest{MaxInsts: testMaxInsts, Units: units})
	if err != nil {
		t.Fatal(err)
	}

	var g fleet.LeaseGrant
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "w", Token: g.Token, State: StateFailed, Error: "simulator crashed"}, nil); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d", code)
	}
	// The breaker is open now: the remaining units end at grant and the
	// queue is empty.
	if code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, nil); code != http.StatusNoContent {
		t.Fatalf("lease after the breaker tripped: HTTP %d, want 204", code)
	}
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobFailed || final.Failed != 3 {
		t.Fatalf("job ended %+v, want failed with 3 failed units", final)
	}
	if n := counterValue(svc.Registry(), "service_leases_granted_total"); n != 1 {
		t.Fatalf("granted %d leases, want 1", n)
	}
	resp, err := client.Results(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range resp.Units[1:] {
		if !strings.Contains(u.Error, "circuit breaker open") {
			t.Fatalf("unit %d error %q, want the open breaker", u.Index, u.Error)
		}
	}
}

// Canceling a job while a remote unit's first attempt fails starts no
// second attempt, and the unit ends canceled, not failed.
func TestCancelDuringRemoteAttemptStopsRetries(t *testing.T) {
	svc, client, _ := testService(t, Config{CoordinatorOnly: true, Retries: 3}, false)
	cfg := cpu.Conventional(2, 2)
	status, err := client.Submit(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.Job(status.ID)

	var mu sync.Mutex
	attempts := 0
	entered := make(chan struct{})
	startWorker(t, client, &fleet.Worker{
		ID: "remote",
		Execute: func(ctx context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			if fleet.Attempt(ctx) == 1 {
				close(entered)
				<-j.ctx.Done()
				return nil, errors.New("simulator lost its input")
			}
			return nil, errors.New("attempt started after cancel")
		},
	})
	<-entered
	if _, err := client.Cancel(status.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCanceled || final.Canceled != 1 {
		t.Fatalf("job ended %+v, want canceled with its unit canceled", final)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("%d attempts ran, want 1: cancellation must not trigger retries", attempts)
	}
}

// A half-open probe whose lease expires before it completes re-arms
// the probe: the workload's next unit is granted as a fresh probe
// instead of failing at the open breaker until arld restarts.
func TestBreakerProbeLostToLeaseExpiry(t *testing.T) {
	const ttl = 5
	svc, client, _ := testService(t, Config{CoordinatorOnly: true, BreakerThreshold: 1, BreakerCooldown: 1, LeaseTTL: ttl}, false)
	cfg := cpu.Conventional(2, 2)
	units := make([]UnitSpec, 5)
	for i := range units {
		units[i] = UnitSpec{Kind: KindSimulate, Workload: "li", Config: &cfg}
	}
	if _, err := client.Submit(CampaignRequest{MaxInsts: testMaxInsts, Units: units}); err != nil {
		t.Fatal(err)
	}
	lease := func() (fleet.LeaseGrant, int) {
		var g fleet.LeaseGrant
		code := postJSON(t, client.Base+"/api/v1/lease", fleet.LeaseRequest{Worker: "w"}, &g)
		return g, code
	}

	g, _ := lease()
	if code := postJSON(t, client.Base+"/api/v1/lease/"+g.LeaseID+"/complete",
		fleet.CompleteRequest{Worker: "w", Token: g.Token, State: StateFailed, Error: "simulator crashed"}, nil); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d", code)
	}
	// Unit 1 spends the one-arrival cooldown; unit 2 is the probe.
	probe, code := lease()
	if code != http.StatusOK || probe.Unit != 2 {
		t.Fatalf("probe lease: HTTP %d, unit %d; want unit 2", code, probe.Unit)
	}
	svc.TickLeases(ttl)
	if n := counterValue(svc.Registry(), "service_leases_expired_total"); n != 1 {
		t.Fatalf("%d leases expired, want the probe's", n)
	}
	if next, code := lease(); code != http.StatusOK || next.Unit != 3 {
		t.Fatalf("lease after the probe expired: HTTP %d, unit %d; want unit 3 as the new probe", code, next.Unit)
	}
}

// An in-process worker's lease never expires: with lease ticks driven
// far past the TTL while its unit runs, the unit still runs exactly
// once and no lease expires.
func TestInProcessLeaseOutlivesTicks(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 1, LeaseTTL: 2}, false)
	var mu sync.Mutex
	runs := 0
	entered, release := make(chan struct{}), make(chan struct{})
	svc.testHook = func(*unit, int) error {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
		return nil
	}
	cfg := cpu.Conventional(2, 2)
	status, err := client.Submit(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < 100; i++ {
		svc.TickLeases(10)
	}
	close(release)
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobComplete {
		t.Fatalf("job ended %+v, want complete", final)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("unit ran %d times, want 1", runs)
	}
	if n := counterValue(svc.Registry(), "service_leases_expired_total"); n != 0 {
		t.Fatalf("%d in-process leases expired, want 0", n)
	}
}
