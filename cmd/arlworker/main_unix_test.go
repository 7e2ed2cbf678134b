//go:build unix

package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/cliutil"
	"repro/internal/service"
	"repro/internal/store"
)

// Two arlworkers pull a campaign from a coordinator-only service. w1
// is SIGSTOPped mid-unit until its lease expires, and on SIGCONT its
// late completion is fenced; w2 joins under a -net-faults plan. The
// campaign completes, SIGTERM ends both workers with status 130, and
// no store holds a quarantined record.
func TestFencedZombieAndNetFaults(t *testing.T) {
	coordDir, workDir := t.TempDir(), t.TempDir()
	st, err := store.Open(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 10
	svc := service.New(service.Config{CoordinatorOnly: true, LeaseTTL: ttl}, st)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Drain)
	worker := func(id string, extra ...string) *clitest.Proc {
		return clitest.Start(t, append([]string{"-coordinator", srv.URL, "-id", id, "-store-dir", workDir,
			"-renew", "20ms", "-poll", "50ms", "-parallel", "1"}, extra...)...)
	}
	metric := func(name, worker string) float64 { return clitest.Metric(srv.URL, name+"{worker="+worker+"}") }

	w1 := worker("w1")
	cl := &service.Client{Base: srv.URL, Tenant: "test"}
	job, err := cl.Submit(service.CampaignRequest{
		Workloads: []string{"li"},
		Configs:   []string{"(2+0)", "(3+3)", "(2+2)", "(3+0)"},
		MaxInsts:  1000000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// w1 holds the only lease; stopped, it is alive but unreachable, and
	// moving the lease clock past the TTL expires exactly that lease.
	clitest.Eventually(t, "w1's first lease", func() bool { return metric("service_leases_granted_total", "w1") >= 1 })
	w1.Signal(syscall.SIGSTOP)
	svc.TickLeases(ttl + 1)
	if n := metric("service_leases_expired_total", "w1"); n != 1 {
		t.Fatalf("%g of w1's leases expired, want 1", n)
	}

	// From here the clock keeps moving, so a lease whose grant an
	// injected fault lost expires and its unit is granted again.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				svc.TickLeases(1)
			}
		}
	}()
	w2 := worker("w2", "-net-faults", "9:3:10")
	w1.Signal(syscall.SIGCONT)
	clitest.Eventually(t, "w1's late completion to be fenced", func() bool {
		return metric("service_leases_fenced_rejects_total", "w1") >= 1
	})

	final, err := cl.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.JobComplete {
		t.Fatalf("job ended %s, want %s\n--- w1 ---\n%s--- w2 ---\n%s", final.State, service.JobComplete, w1.Stderr(), w2.Stderr())
	}
	clitest.Eventually(t, "w2's injected network faults", func() bool {
		return strings.Contains(w2.Stderr(), "chaosnet: injecting")
	})

	for _, w := range []*clitest.Proc{w1, w2} {
		w.Signal(syscall.SIGTERM)
		if code := w.Wait(); code != cliutil.ExitInterrupted {
			t.Fatalf("worker exited %d after SIGTERM, want %d\n%s", code, cliutil.ExitInterrupted, w.Stderr())
		}
	}
	for _, dir := range []string{coordDir, workDir} {
		ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
		if err != nil || len(ents) > 0 {
			t.Fatalf("%s/quarantine: %d entries (err %v), want none", dir, len(ents), err)
		}
	}
}
