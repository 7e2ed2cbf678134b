package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/service/journal"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// TestChaosServerHelper is not a test: it is the arld-shaped child
// process the crash-restart differential spawns and SIGKILLs. It
// builds a journaled service over the shared store dir (with injected
// storage faults when ARLD_CHAOS_FAULTS is set), serves the HTTP API,
// recovers the journal, and then blocks until killed.
func TestChaosServerHelper(t *testing.T) {
	dir := os.Getenv("ARLD_CHAOS_DIR")
	addr := os.Getenv("ARLD_CHAOS_ADDR")
	if dir == "" || addr == "" {
		t.Skip("helper for the chaos differential; driven by TestCrashRestartChaosDifferential")
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	fs := store.OS()
	if spec := os.Getenv("ARLD_CHAOS_FAULTS"); spec != "" {
		plan, err := faultfs.ParsePlan(spec)
		if err != nil {
			t.Fatalf("bad fault plan: %v", err)
		}
		fs = faultfs.New(fs, plan, logf)
	}
	st, err := store.OpenFS(dir, fs)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	jrn, err := journal.OpenFS(fs, filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	svc := New(Config{Workers: 1, Retries: 1, Journal: jrn, Log: os.Stderr}, st)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go http.Serve(ln, svc.Handler())
	if _, err := svc.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	select {} // serve until the parent SIGKILLs us
}

// chaosServer manages one helper child process.
type chaosServer struct {
	t    *testing.T
	dir  string
	addr string
	cmd  *exec.Cmd
	out  *strings.Builder
}

func (c *chaosServer) start(faults string) {
	c.t.Helper()
	c.out = &strings.Builder{}
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosServerHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"ARLD_CHAOS_DIR="+c.dir,
		"ARLD_CHAOS_ADDR="+c.addr,
		"ARLD_CHAOS_FAULTS="+faults,
	)
	cmd.Stdout = c.out
	cmd.Stderr = c.out
	if err := cmd.Start(); err != nil {
		c.t.Fatalf("starting helper: %v", err)
	}
	c.cmd = cmd
	c.t.Cleanup(func() {
		if c.cmd != nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	// The server is usable once /readyz turns 200 — journal replayed,
	// recovered units enqueued.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + c.addr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("helper never became ready (faults=%q)\n--- helper output ---\n%s", faults, c.out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// kill SIGKILLs the helper — the crash under test, not a shutdown.
func (c *chaosServer) kill() {
	c.t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		c.t.Fatalf("kill: %v", err)
	}
	c.cmd.Wait()
	c.cmd = nil
}

// submitRetry re-POSTs through transient 503s (journal fault on the
// accept path, replay still finishing) — always with the same request,
// whose idempotency key is what keeps the retries duplicate-free.
func submitRetry(t *testing.T, cl *Client, req CampaignRequest) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, err := cl.Submit(req)
		if err == nil {
			return status
		}
		if !transientServerError(err) || time.Now().After(deadline) {
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestCrashRestartChaosDifferential is the crash-restart acceptance
// test: a campaign driven across three SIGKILLs of the server — right
// after acceptance, mid-campaign with results landed, and after the
// job is terminal — with storage faults injected into the restart that
// runs the campaign to its end, every one of which must fire — must
// converge to a final report byte-identical to an
// uninterrupted in-process run, with the job ID stable across an
// idempotent re-submission and no accepted work lost.
func TestCrashRestartChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child server processes")
	}
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := &chaosServer{t: t, dir: dir, addr: addr}
	cl := &Client{Base: "http://" + addr, Tenant: "chaos"}

	// A budget well above the other service tests' so the units take
	// long enough that the mid-campaign kill genuinely lands mid-
	// campaign instead of after a too-fast grid already finished.
	const chaosMaxInsts = 400_000
	workloads := testWorkloads(t, "li", "compress")
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	req := CampaignRequest{
		MaxInsts:       chaosMaxInsts,
		Seed:           1,
		IdempotencyKey: "chaos-differential-1",
		Units:          SimGrid(workloads, configs),
	}

	// Kill point 1: immediately after acceptance. The job record is
	// journaled and durable by the time the POST returns; every unit is
	// still queued.
	srv.start("")
	accepted := submitRetry(t, cl, req)
	if accepted.ID == "" {
		t.Fatal("no job id")
	}
	srv.kill()

	// Restart. The re-POST of the same request must land on the
	// original job, not a duplicate.
	srv.start("")
	again := submitRetry(t, cl, req)
	if again.ID != accepted.ID {
		t.Fatalf("idempotent re-POST returned job %s, original was %s", again.ID, accepted.ID)
	}

	// Kill point 2: mid-campaign, after at least one unit finished —
	// its result is in the journal and its artifacts in the store.
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, err := cl.Status(accepted.ID)
		if err == nil && status.Done >= 1 {
			break
		}
		if err == nil && status.Terminal() {
			break // tiny grid outran the poll; the differential still holds
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unit finished before kill point 2\n--- helper output ---\n%s", srv.out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv.kill()

	// Restart with storage faults and ride the job to terminal. This is
	// the restart that does the campaign's work, so a window of 4 lies
	// inside its operation counts (about 7 writes, 7 fsyncs and 7
	// reads), and the plan
	// (read-eio@op0, sync-fail@op1, sync-fail@op2) fires whole: the
	// replay's first read, and store and journal fsyncs mid-campaign.
	// The other restarts make too few operations for any window (the
	// one after kill point 3 writes nothing at all), so a plan there
	// would be one that never fires.
	srv.start("11:3:4")
	status, err := cl.Wait(accepted.ID)
	if err != nil {
		t.Fatalf("wait after second restart: %v\n--- helper output ---\n%s", err, srv.out)
	}
	if status.ID != accepted.ID {
		t.Fatalf("wait returned job %s, want %s", status.ID, accepted.ID)
	}

	// Kill point 3: after the job is terminal. Restart must serve the
	// finished results from the journal without re-running anything,
	// and the idempotent re-POST must still return the same, now
	// complete, job.
	srv.kill()
	if n := strings.Count(srv.out.String(), "faultfs: injecting"); n != 3 {
		t.Fatalf("%d of the 3 planned storage faults fired\n--- helper output ---\n%s", n, srv.out)
	}
	srv.start("")
	final := submitRetry(t, cl, req)
	if final.ID != accepted.ID {
		t.Fatalf("post-completion re-POST returned job %s, want %s", final.ID, accepted.ID)
	}
	final, err = cl.Wait(accepted.ID)
	if err != nil {
		t.Fatalf("final wait: %v\n--- helper output ---\n%s", err, srv.out)
	}
	if final.State != JobComplete {
		t.Fatalf("job ended %s, want %s (%d failed, %d canceled)\n--- helper output ---\n%s",
			final.State, JobComplete, final.Failed, final.Canceled, srv.out)
	}
	resp, err := cl.Results(accepted.ID)
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	results, err := decodeSimResults(resp, len(req.Units))
	if err != nil {
		t.Fatal(err)
	}
	chaosReport := experiments.RenderFigure8(
		experiments.AssembleFigure8(workloads, configs, results), configs)

	// The journal-replay counters must show the restarts actually
	// recovered state rather than starting fresh.
	metrics, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if !strings.Contains(string(body), "service_journal_recovered_jobs_total") {
		t.Fatalf("no journal recovery counter in /metrics\n%s", body)
	}

	// The differential: an uninterrupted in-process run over the same
	// grid must render the same bytes.
	r := experiments.NewRunner()
	r.Workloads = workloads
	r.MaxInsts = chaosMaxInsts
	rows, err := r.FigureWithConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	cleanReport := experiments.RenderFigure8(rows, configs)
	if chaosReport != cleanReport {
		t.Fatalf("chaos report differs from uninterrupted run:\n%s\n--- vs ---\n%s", chaosReport, cleanReport)
	}
}

// decodeSimResults unpacks a results response into spec-ordered
// simulation results, requiring every unit to have finished.
func decodeSimResults(resp ResultsResponse, n int) ([]*cpu.Result, error) {
	results := make([]*cpu.Result, n)
	for _, u := range resp.Units {
		if u.State != StateDone {
			return nil, fmt.Errorf("unit %d ended %s: %s", u.Index, u.State, u.Error)
		}
		if u.Index < 0 || u.Index >= n || len(u.Result) == 0 {
			return nil, fmt.Errorf("unit %d: missing result", u.Index)
		}
		var res cpu.Result
		if err := json.Unmarshal(u.Result, &res); err != nil {
			return nil, err
		}
		results[u.Index] = &res
	}
	for i, r := range results {
		if r == nil {
			return nil, errors.New("missing result for unit " + fmt.Sprint(i))
		}
	}
	return results, nil
}
