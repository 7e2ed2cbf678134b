package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service/fleet"
	"repro/internal/store"
	"repro/internal/workload"
)

const testMaxInsts = 20_000

func testWorkloads(t *testing.T, names ...string) []*workload.Workload {
	t.Helper()
	out := make([]*workload.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out
}

func testService(t *testing.T, cfg Config, withStore bool) (*Service, *Client, *store.Store) {
	t.Helper()
	var st *store.Store
	if withStore {
		var err error
		st, err = store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
	}
	svc := New(cfg, st)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Drain)
	return svc, &Client{Base: srv.URL, Tenant: "test"}, st
}

func counterValue(reg *obs.Registry, name string) uint64 {
	var total uint64
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Value != nil {
			total += uint64(*s.Value)
		}
	}
	return total
}

// Two concurrent clients submitting the same grid must render
// byte-identical reports — equal to a local in-process run — with the
// overlap visible in the dedupe counters. This is the acceptance
// criterion of the service: shared-store memoization makes concurrent
// campaign clients cheap, not just correct.
func TestConcurrentClientsOverlapByteIdentical(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 4}, true)
	workloads := testWorkloads(t, "li")
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}

	render := func(rows []experiments.Figure8Row) string {
		return experiments.RenderFigure8(rows, configs)
	}

	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{Base: client.Base, Tenant: "tenant" + string(rune('A'+i))}
			rows, err := cl.Figure8(0, testMaxInsts, 1, workloads, configs)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = render(rows)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("concurrent clients diverge:\n%s\n--- vs ---\n%s", outs[0], outs[1])
	}

	// The same grid simulated locally must render the same bytes.
	r := experiments.NewRunner()
	r.Workloads = workloads
	r.MaxInsts = testMaxInsts
	rows, err := r.FigureWithConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	if local := render(rows); local != outs[0] {
		t.Fatalf("server report differs from local:\n%s\n--- vs ---\n%s", outs[0], local)
	}

	// Every unit of the second grid overlapped the first.
	if got := counterValue(svc.Registry(), "service_units_deduped_total"); got < uint64(len(configs)) {
		t.Fatalf("deduped %d units, want >= %d", got, len(configs))
	}
}

// A worker dying mid-unit must not fail the job: the service-level
// retry re-runs the unit and the campaign completes.
func TestUnitRetryRecoversWorkerFailure(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 2, Retries: 2}, true)
	var mu sync.Mutex
	crashed := map[string]bool{}
	svc.testHook = func(u *unit, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if !crashed[u.key] {
			crashed[u.key] = true
			return errors.New("worker crashed mid-unit")
		}
		return nil
	}
	cfg := cpu.Decoupled(3, 3)
	resp, err := client.Run(CampaignRequest{
		MaxInsts: testMaxInsts, Seed: 7,
		Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status.State != JobComplete || resp.Status.Done != 1 {
		t.Fatalf("job ended %+v, want complete", resp.Status)
	}
	if got := counterValue(svc.Registry(), "service_unit_retries_total"); got == 0 {
		t.Fatal("no retries recorded despite the injected crash")
	}
}

// Without retry budget, an injected crash is a permanent unit failure
// and the job reports it.
func TestUnitFailureWithoutRetries(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 1}, false)
	svc.testHook = func(u *unit, attempt int) error {
		return errors.New("worker crashed mid-unit")
	}
	cfg := cpu.Conventional(2, 2)
	_, err := client.Run(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	})
	if err == nil || !strings.Contains(err.Error(), "worker crashed") {
		t.Fatalf("err = %v, want the unit failure surfaced", err)
	}
}

// Cancel ends a job's pending units while the in-flight unit runs to
// completion and keeps its result.
func TestCancelPendingUnits(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 1}, true)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHook = func(u *unit, attempt int) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	cfg := cpu.Conventional(2, 2)
	cfg2 := cpu.Decoupled(3, 3)
	cfg3 := cpu.Decoupled(2, 2)
	status, err := client.Submit(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units: []UnitSpec{
			{Kind: KindSimulate, Workload: "li", Config: &cfg},
			{Kind: KindSimulate, Workload: "li", Config: &cfg2},
			{Kind: KindSimulate, Workload: "li", Config: &cfg3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := client.Cancel(status.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCanceled {
		t.Fatalf("job state %q, want %q", final.State, JobCanceled)
	}
	if final.Done != 1 || final.Canceled != 2 {
		t.Fatalf("done %d canceled %d, want 1 and 2: %+v", final.Done, final.Canceled, final)
	}
	resp, err := client.Results(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Units[0].Result) == 0 {
		t.Fatal("the in-flight unit's result was dropped by cancel")
	}
}

// Overflowing the queue or a tenant's quota rejects the submission
// with the typed errors the handler maps onto 429.
func TestBackpressureAndQuota(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 1, QueueCap: 2, TenantCap: 2}, false)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHook = func(u *unit, attempt int) error {
		once.Do(func() { close(entered) })
		<-release
		return errors.New("still shut off")
	}
	defer close(release)

	cfg := cpu.Conventional(2, 2)
	unit1 := []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}}
	// Tenant A's unit is picked up by the lone worker, which blocks in
	// the hook; wait for that so the queue is observably empty.
	if _, err := svc.Submit(CampaignRequest{Tenant: "a", Units: unit1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never picked the first unit up")
	}
	// Two more fill the queue, then overflow.
	if _, err := svc.Submit(CampaignRequest{Tenant: "b", Units: unit1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(CampaignRequest{Tenant: "b", Units: unit1}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Submit(CampaignRequest{Tenant: "c", Units: unit1})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Tenant B is at its quota of 2 even though the queue check comes
	// later.
	_, err = svc.Submit(CampaignRequest{Tenant: "b", Units: unit1})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	// The HTTP mapping: over-quota is 429.
	_, err = client.Submit(CampaignRequest{Tenant: "b", Units: unit1})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want an HTTP 429", err)
	}
}

// QueueCap bounds the units waiting for a worker, wherever the worker
// runs: a unit out on a remote lease frees its slot, as an in-process
// worker's unit does.
func TestRemoteLeasesTakeNoQueueSlot(t *testing.T) {
	svc, _, _ := testService(t, Config{CoordinatorOnly: true, QueueCap: 2, TenantCap: 10}, false)
	cfg := cpu.Conventional(2, 2)
	unit1 := []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}}
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(CampaignRequest{Units: unit1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		g, err := svc.lease(context.Background(), "remote", 0, false)
		if err != nil || g == nil {
			t.Fatalf("lease %d: grant %v, err %v", i, g, err)
		}
	}
	if _, err := svc.Submit(CampaignRequest{Units: unit1}); err != nil {
		t.Fatalf("submission with both units on remote leases: %v", err)
	}
	// The one queued unit plus two more would pass the bound.
	_, err := svc.Submit(CampaignRequest{Units: append(unit1, unit1...)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// Drain completes the in-flight unit (its artifact lands in the store
// intact), cancels the queued ones, and marks the job interrupted.
func TestDrainGraceful(t *testing.T) {
	svc, client, st := testService(t, Config{Workers: 1}, true)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHook = func(u *unit, attempt int) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	cfg := cpu.Conventional(2, 2)
	cfg2 := cpu.Decoupled(3, 3)
	status, err := client.Submit(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units: []UnitSpec{
			{Kind: KindSimulate, Workload: "li", Config: &cfg},
			{Kind: KindSimulate, Workload: "li", Config: &cfg2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	drained := make(chan struct{})
	go func() {
		svc.Drain()
		close(drained)
	}()
	time.Sleep(20 * time.Millisecond) // let Drain close the stop channel
	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not finish")
	}

	j, ok := svc.Job(status.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	final := svc.status(j)
	if final.State != JobInterrupted {
		t.Fatalf("job state %q, want %q: %+v", final.State, JobInterrupted, final)
	}
	if final.Done != 1 || final.Canceled != 1 {
		t.Fatalf("done %d canceled %d, want 1 and 1", final.Done, final.Canceled)
	}
	// The completed unit's artifacts flushed cleanly: nothing
	// quarantined, and a submission after drain is refused.
	if n, err := st.Quarantined(); err != nil || n != 0 {
		t.Fatalf("quarantined %d (%v), want 0", n, err)
	}
	_, err = svc.Submit(CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}}})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// The grid shorthand expands workloads × configs, validates names, and
// rejects empty campaigns.
func TestExpandGrid(t *testing.T) {
	units, err := expand(CampaignRequest{Workloads: []string{"li", "go"}, Configs: []string{"(2+0)", "(3+3)"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("got %d units, want 4", len(units))
	}
	if units[0].Config == nil || units[0].Config.Name != "(2+0)" {
		t.Fatalf("unit 0 config %+v", units[0].Config)
	}
	if _, err := expand(CampaignRequest{Workloads: []string{"nope"}, Configs: []string{"(2+0)"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := expand(CampaignRequest{Configs: []string{"(0+9)"}}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := expand(CampaignRequest{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
	if _, err := expand(CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li"}}}); err == nil {
		t.Fatal("simulate unit without config accepted")
	}
}

// The metrics endpoint publishes queue/dedupe/tenant counters and the
// store's counters, and repeated scrapes do not double-count the
// store's published totals.
func TestMetricsEndpointStable(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 2}, true)
	cfg := cpu.Conventional(2, 2)
	if _, err := client.Run(CampaignRequest{
		MaxInsts: testMaxInsts,
		Units:    []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &cfg}},
	}); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		var b strings.Builder
		if err := svc.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := scrape()
	for _, want := range []string{"service_units_total", "service_jobs_total", "harness_store_writes_total"} {
		if !strings.Contains(first, want) {
			t.Fatalf("metrics missing %s:\n%s", want, first)
		}
	}
	if second := scrape(); second != first {
		t.Fatalf("idle rescrape changed the metrics:\n%s\n--- vs ---\n%s", first, second)
	}
}

// A job canceled while its only unit is mid-attempt must end that unit
// as Canceled without running another attempt: the retry closure
// consults its context before starting fresh work, so cancellation is
// never burned as a retryable failure.
func TestCancelDuringAttemptStopsRetries(t *testing.T) {
	svc, client, _ := testService(t, Config{Workers: 1, Retries: 3}, false)
	var mu sync.Mutex
	attempts := 0
	entered := make(chan struct{})
	svc.testHook = func(u *unit, attempt int) error {
		mu.Lock()
		attempts++
		mu.Unlock()
		if attempt == 1 {
			close(entered)
			<-u.job.ctx.Done()
			return u.job.ctx.Err()
		}
		return errors.New("attempt started after cancel")
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
	if _, err := client.Cancel(status.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCanceled {
		t.Fatalf("job state %q, want %q", final.State, JobCanceled)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("%d attempts ran, want 1: cancellation must not trigger retries", attempts)
	}
}

// leaseAndComplete leases the next queued unit to a remote worker and
// completes it done with result, returning the grant.
func leaseAndComplete(t *testing.T, svc *Service, result json.RawMessage) *fleet.LeaseGrant {
	t.Helper()
	g, err := svc.lease(context.Background(), "remote", 0, false)
	if err != nil || g == nil {
		t.Fatalf("lease: grant %+v, err %v", g, err)
	}
	if _, err := svc.completeLease(context.Background(), g.LeaseID, fleet.CompleteRequest{
		Worker: "remote", Token: g.Token, State: StateDone, Result: result,
	}, false); err != nil {
		t.Fatalf("complete %s[%d]: %v", g.Job, g.Unit, err)
	}
	return g
}

// A job mixing finished keys with new ones is answered in part at
// admission: its first status already counts the finished units done
// and deduped, and only the new unit is queued and leased.
func TestAdmissionAnswersFinishedUnits(t *testing.T) {
	svc, _, _ := testService(t, Config{CoordinatorOnly: true}, false)
	a, b := cpu.Conventional(2, 2), cpu.Decoupled(3, 3)
	canned := json.RawMessage(`{"cycles":7}`)
	if _, err := svc.Submit(CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &a}}}); err != nil {
		t.Fatal(err)
	}
	leaseAndComplete(t, svc, canned)

	st, err := svc.Submit(CampaignRequest{Units: []UnitSpec{
		{Kind: KindSimulate, Workload: "li", Config: &a},
		{Kind: KindSimulate, Workload: "li", Config: &b},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Done != 1 || st.Deduped != 1 || st.Queued != 1 {
		t.Fatalf("first status %+v, want 1 done and deduped, 1 queued", st)
	}
	if g := leaseAndComplete(t, svc, canned); g.Job != st.ID || g.Unit != 1 {
		t.Fatalf("leased %s[%d], want the new unit %s[1]", g.Job, g.Unit, st.ID)
	}
	if g, err := svc.lease(context.Background(), "remote", 0, false); g != nil || err != nil {
		t.Fatalf("a second lease found %+v, %v; want an empty queue", g, err)
	}
	j, _ := svc.Job(st.ID)
	res := svc.results(j)
	if res.Status.State != JobComplete || !res.Units[0].Deduped || !bytes.Equal(res.Units[0].Result, canned) {
		t.Fatalf("results %+v, want complete with unit 0 answered by the first job's result", res)
	}
	if n := counterValue(svc.Registry(), "service_leases_granted_total"); n != 2 {
		t.Fatalf("granted %d leases, want 2", n)
	}
}

// A resubmission every unit of which has finished needs no worker, so
// neither a full queue nor QueueCap smaller than the grid refuses it.
func TestAdmissionAcceptsFinishedGridOverQueueCap(t *testing.T) {
	svc, _, _ := testService(t, Config{CoordinatorOnly: true, QueueCap: 1, TenantCap: 10}, false)
	a, b, c := cpu.Conventional(2, 2), cpu.Decoupled(3, 3), cpu.Decoupled(2, 2)
	grid := []UnitSpec{
		{Kind: KindSimulate, Workload: "li", Config: &a},
		{Kind: KindSimulate, Workload: "li", Config: &b},
	}
	for _, u := range grid {
		if _, err := svc.Submit(CampaignRequest{Units: []UnitSpec{u}}); err != nil {
			t.Fatal(err)
		}
		leaseAndComplete(t, svc, json.RawMessage(`{"cycles":7}`))
	}
	if _, err := svc.Submit(CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &c}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "go", Config: &c}}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a new unit over the full queue: err = %v, want ErrQueueFull", err)
	}
	st, err := svc.Submit(CampaignRequest{Units: grid})
	if err != nil {
		t.Fatalf("finished grid over the full queue: %v", err)
	}
	if st.State != JobComplete || st.Done != 2 || st.Deduped != 2 {
		t.Fatalf("finished grid's reply %+v, want complete with 2 done and deduped", st)
	}
}

// A duplicate of a key that is leased but not finished is not answered
// at admission: it is queued, leased, and counted deduped at the grant.
func TestAdmissionQueuesInFlightDuplicate(t *testing.T) {
	svc, _, _ := testService(t, Config{CoordinatorOnly: true}, false)
	a := cpu.Conventional(2, 2)
	req := CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &a}}}
	if _, err := svc.Submit(req); err != nil {
		t.Fatal(err)
	}
	first, err := svc.lease(context.Background(), "remote", 0, false)
	if err != nil || first == nil {
		t.Fatalf("lease: grant %+v, err %v", first, err)
	}
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 0 || st.Queued != 1 {
		t.Fatalf("duplicate's status %+v, want 1 queued", st)
	}
	if n := counterValue(svc.Registry(), "service_units_deduped_total"); n != 0 {
		t.Fatalf("deduped %d units before the duplicate's grant, want 0", n)
	}
	if g := leaseAndComplete(t, svc, json.RawMessage(`{"cycles":7}`)); g.Job != st.ID {
		t.Fatalf("leased %s, want the duplicate's job %s", g.Job, st.ID)
	}
	if n := counterValue(svc.Registry(), "service_units_deduped_total"); n != 1 {
		t.Fatalf("deduped %d units after the duplicate's grant, want 1", n)
	}
	j, _ := svc.Job(st.ID)
	if res := svc.results(j); res.Status.State != JobComplete || !res.Units[0].Deduped {
		t.Fatalf("duplicate's results %+v, want complete and deduped", res)
	}
}

// A remote done completion with an empty result is stored as null, and
// a null result answers nothing: a later unit with its key is leased.
func TestAdmissionIgnoresEmptyResult(t *testing.T) {
	svc, _, _ := testService(t, Config{CoordinatorOnly: true}, false)
	a := cpu.Conventional(2, 2)
	req := CampaignRequest{Units: []UnitSpec{{Kind: KindSimulate, Workload: "li", Config: &a}}}
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	leaseAndComplete(t, svc, nil)
	j, _ := svc.Job(first.ID)
	if res := svc.results(j); string(res.Units[0].Result) != "null" {
		t.Fatalf("empty remote result stored as %q, want null", res.Units[0].Result)
	}
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 0 || st.Queued != 1 {
		t.Fatalf("resubmission's status %+v, want 1 queued", st)
	}
	if g := leaseAndComplete(t, svc, json.RawMessage(`{"cycles":7}`)); g.Job != st.ID {
		t.Fatalf("leased %s, want the resubmission %s", g.Job, st.ID)
	}
}
