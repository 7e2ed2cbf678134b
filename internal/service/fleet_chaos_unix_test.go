//go:build unix

package service

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/resilience/chaosnet"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
)

// --- fleet chaos differential: helper processes -----------------------

// TestFleetCoordinatorHelper is the coordinator child process of the
// fleet chaos differential: a coordinator-only arld over a journaled
// store dir with a fast wall-clock lease ticker, serving until killed.
func TestFleetCoordinatorHelper(t *testing.T) {
	dir := os.Getenv("ARL_FLEET_DIR")
	addr := os.Getenv("ARL_FLEET_ADDR")
	if dir == "" || addr == "" {
		t.Skip("helper for the fleet chaos differential; driven by TestFleetChaosDifferential")
	}
	fs := store.OS()
	st, err := store.OpenFS(dir, fs)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	jrn, err := journal.OpenFS(fs, filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	svc := New(Config{
		CoordinatorOnly: true,
		LeaseTTL:        40, // x 25ms tick: a worker silent for ~1s loses its lease
		Journal:         jrn,
		Log:             os.Stderr,
	}, st)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go http.Serve(ln, svc.Handler())
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			svc.TickLeases(1)
		}
	}()
	if _, err := svc.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	select {} // serve until the parent SIGKILLs us
}

// TestFleetWorkerHelper is one worker child process: a fleet.Worker
// over its own store-backed runner pool, optionally with a chaosnet
// fault plan under its HTTP transport.
func TestFleetWorkerHelper(t *testing.T) {
	coord := os.Getenv("ARL_FLEET_COORD")
	id := os.Getenv("ARL_FLEET_WORKER_ID")
	if coord == "" || id == "" {
		t.Skip("helper for the fleet chaos differential; driven by TestFleetChaosDifferential")
	}
	var st *store.Store
	if dir := os.Getenv("ARL_FLEET_WORKER_DIR"); dir != "" {
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	var inj *chaosnet.Injector
	if spec := os.Getenv("ARL_FLEET_NETFAULTS"); spec != "" {
		plan, err := chaosnet.ParsePlan(spec)
		if err != nil {
			t.Fatalf("bad net fault plan: %v", err)
		}
		inj = chaosnet.New(plan, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, id+": "+format+"\n", args...)
		})
	}
	w := &fleet.Worker{
		Coordinator: coord,
		ID:          id,
		Execute:     (&Runners{Store: st}).Execute,
		HTTP:        &http.Client{Timeout: 10 * time.Second, Transport: chaosnet.Transport(nil, inj)},
		RenewEvery:  100 * time.Millisecond,
		Poll:        50 * time.Millisecond,
		Parallel:    1,
		Log:         os.Stderr,
	}
	w.Run(context.Background())
}

// fleetProc manages one helper child (coordinator or worker).
type fleetProc struct {
	t   *testing.T
	cmd *exec.Cmd
	out *strings.Builder
}

func startFleetProc(t *testing.T, run string, env map[string]string) *fleetProc {
	t.Helper()
	p := &fleetProc{t: t, out: &strings.Builder{}}
	cmd := exec.Command(os.Args[0], "-test.run=^"+run+"$", "-test.v")
	cmd.Env = os.Environ()
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	cmd.Stdout = p.out
	cmd.Stderr = p.out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", run, err)
	}
	p.cmd = cmd
	t.Cleanup(func() {
		if p.cmd != nil && p.cmd.Process != nil {
			p.cmd.Process.Signal(syscall.SIGCONT) // a stopped child ignores SIGKILL until continued
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

func (p *fleetProc) kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("kill: %v", err)
	}
	p.cmd.Wait()
	p.cmd = nil
}

func (p *fleetProc) signal(sig syscall.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signal %v: %v", sig, err)
	}
}

// metricValue sums the series of one counter/gauge in an arld /metrics
// page, keeping only lines whose label set contains labelSub (empty
// matches all series).
func metricValue(t *testing.T, base, name, labelSub string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0 // coordinator mid-restart: treat as "not yet"
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a different metric sharing the prefix
		}
		if labelSub != "" && !strings.Contains(rest, labelSub) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

func waitForMetric(t *testing.T, base, name, labelSub string, min float64, what string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if metricValue(t, base, name, labelSub) >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s (%s%s >= %g)", what, name, labelSub, min)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitReady polls /readyz until the coordinator answers 200.
func waitReady(t *testing.T, base string, p *fleetProc) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never became ready\n--- output ---\n%s", p.out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetChaosDifferential is the distributed-arld acceptance test:
// a campaign served by a 3-worker fleet where one worker is SIGKILLed
// mid-unit, another is SIGSTOPped until its lease expires (and later
// resumed, so its stale completion hits the fence), the third runs
// behind an injected network-fault plan, and the coordinator itself is
// SIGKILLed and restarted mid-campaign — must complete with a report
// byte-identical to an uninterrupted single-process run, a stable job
// ID, and the expiry/fencing counters showing the machinery actually
// fired.
func TestFleetChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and signals child processes")
	}
	coordDir := t.TempDir()
	workerDir := t.TempDir() // shared by all workers: the fleet-wide store tier
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	coordEnv := map[string]string{"ARL_FLEET_DIR": coordDir, "ARL_FLEET_ADDR": addr}
	coord := startFleetProc(t, "TestFleetCoordinatorHelper", coordEnv)
	waitReady(t, base, coord)

	worker := func(id, faults string) *fleetProc {
		return startFleetProc(t, "TestFleetWorkerHelper", map[string]string{
			"ARL_FLEET_COORD":      base,
			"ARL_FLEET_WORKER_ID":  id,
			"ARL_FLEET_WORKER_DIR": workerDir,
			"ARL_FLEET_NETFAULTS":  faults,
		})
	}
	w1 := worker("w1", "")
	w2 := worker("w2", "")

	// Heavy enough that a unit takes whole seconds: the kill and the
	// stop below genuinely land mid-unit.
	const fleetMaxInsts = 400_000
	workloads := testWorkloads(t, "li", "compress")
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	req := CampaignRequest{
		MaxInsts:       fleetMaxInsts,
		Seed:           1,
		IdempotencyKey: "fleet-chaos-1",
		Units:          SimGrid(workloads, configs),
	}
	cl := &Client{Base: base, Tenant: "fleet-chaos"}
	accepted := submitRetry(t, cl, req)
	if accepted.ID == "" {
		t.Fatal("no job id")
	}

	// Both workers pick up a unit...
	waitForMetric(t, base, "service_leases_granted_total", "worker=w1}", 1, "w1's first lease")
	waitForMetric(t, base, "service_leases_granted_total", "worker=w2}", 1, "w2's first lease")
	// ...then w1 dies mid-unit and w2 goes dark mid-unit (a partition:
	// the process is alive but nothing reaches the coordinator).
	w1.kill()
	w2.signal(syscall.SIGSTOP)

	// The third worker joins behind a seeded network-fault plan —
	// resets, half-open round trips and truncated responses on its
	// coordinator traffic.
	worker("w3", "9:3:40")

	// The coordinator's lease clock expires both dark leases and
	// requeues their units.
	waitForMetric(t, base, "service_leases_expired_total", "", 2, "the dark workers' leases to expire")

	// Now crash the coordinator and restart it over the same journal.
	coord.kill()
	coord = startFleetProc(t, "TestFleetCoordinatorHelper", coordEnv)
	waitReady(t, base, coord)

	// The idempotent re-POST must land on the recovered job.
	again := submitRetry(t, cl, req)
	if again.ID != accepted.ID {
		t.Fatalf("re-POST after coordinator restart returned job %s, original was %s", again.ID, accepted.ID)
	}

	// Wake the partitioned worker: it finishes its unit and publishes
	// with a token from before the expiry AND the restart — the zombie
	// writer. The restarted coordinator must reject it.
	w2.signal(syscall.SIGCONT)
	waitForMetric(t, base, "service_leases_fenced_rejects_total", "", 1, "the zombie completion to be fenced")

	final, err := cl.Wait(accepted.ID)
	if err != nil {
		t.Fatalf("wait: %v\n--- coordinator ---\n%s", err, coord.out)
	}
	if final.State != JobComplete {
		t.Fatalf("job ended %s, want %s (%d failed, %d canceled)\n--- coordinator ---\n%s",
			final.State, JobComplete, final.Failed, final.Canceled, coord.out)
	}

	resp, err := cl.Results(accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	results, err := decodeSimResults(resp, len(req.Units))
	if err != nil {
		t.Fatal(err)
	}
	fleetReport := experiments.RenderFigure8(
		experiments.AssembleFigure8(workloads, configs, results), configs)

	// The differential: an uninterrupted in-process run over the same
	// grid must render the same bytes — no unit lost, none
	// double-counted, none corrupted by the chaos.
	r := experiments.NewRunner()
	r.Workloads = workloads
	r.MaxInsts = fleetMaxInsts
	rows, err := r.FigureWithConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	cleanReport := experiments.RenderFigure8(rows, configs)
	if fleetReport != cleanReport {
		t.Fatalf("fleet report differs from uninterrupted run:\n%s\n--- vs ---\n%s", fleetReport, cleanReport)
	}
}
