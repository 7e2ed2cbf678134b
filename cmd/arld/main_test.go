//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/clitest"
	"repro/internal/cliutil"
	"repro/internal/service"
	"repro/internal/service/fleet"
)

func TestMain(m *testing.M) { clitest.Main(m, "arld", main) }

// startArld starts arld on a free loopback port with args and waits
// until /readyz answers 200.
func startArld(t *testing.T, args ...string) (*clitest.Proc, *service.Client) {
	t.Helper()
	p := clitest.Start(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var base string
	clitest.Eventually(t, "arld to listen", func() bool {
		_, rest, ok := strings.Cut(p.Stderr(), "arld: listening on ")
		if ok {
			base, _, ok = strings.Cut(rest, "\n")
		}
		return ok
	})
	clitest.Eventually(t, "arld to be ready", func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return p, &service.Client{Base: base, Tenant: "test"}
}

// drain sends SIGTERM and requires a graceful exit: status 130, and no
// record of the store or the journal under dir quarantined.
func drain(t *testing.T, p *clitest.Proc, dir string) {
	t.Helper()
	p.Signal(syscall.SIGTERM)
	if code := p.Wait(); code != cliutil.ExitInterrupted {
		t.Fatalf("arld exited %d after SIGTERM, want %d\n%s", code, cliutil.ExitInterrupted, p.Stderr())
	}
	for _, q := range []string{filepath.Join(dir, "quarantine"), filepath.Join(dir, "journal", "quarantine")} {
		ents, err := os.ReadDir(q)
		if err != nil || len(ents) > 0 {
			t.Fatalf("%s: %d entries (err %v), want none", q, len(ents), err)
		}
	}
}

func wait(t *testing.T, cl *service.Client, id string) service.JobStatus {
	t.Helper()
	st, err := cl.Wait(id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// A campaign runs to complete on arld's in-process workers, which take
// their units through leases; a cancel over the wire ends a job; and
// SIGTERM drains to exit 130 with nothing quarantined.
func TestServeCancelDrain(t *testing.T) {
	dir := t.TempDir()
	p, cl := startArld(t, "-store-dir", dir, "-retries", "1", "-q")

	st, err := cl.Submit(service.CampaignRequest{Workloads: []string{"li"}, Configs: []string{"(2+0)"}, MaxInsts: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if st = wait(t, cl, st.ID); st.State != service.JobComplete {
		t.Fatalf("job ended %s, want %s", st.State, service.JobComplete)
	}
	if clitest.Metric(cl.Base, "service_leases_granted_total{worker=arld}") == 0 {
		t.Error("the in-process workers took no leases")
	}

	st, err = cl.Submit(service.CampaignRequest{Workloads: []string{"go"}, Configs: []string{"(2+0)", "(3+3)"}, MaxInsts: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if st = wait(t, cl, st.ID); st.State != service.JobCanceled && st.State != service.JobComplete {
		t.Fatalf("canceled job ended %s", st.State)
	}
	drain(t, p, dir)
}

// kill -9 mid-campaign and a restart onto the same -store-dir: the
// journal replay requeues the units that had not finished, the
// idempotent re-POST returns the original job, the job runs to
// complete, and a repeat of its grid dedupes.
func TestKillRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-store-dir", dir, "-parallel", "1", "-q"}
	req := service.CampaignRequest{
		IdempotencyKey: "restart-1",
		Workloads:      []string{"li"},
		Configs:        []string{"(2+0)", "(3+3)", "(2+2)", "(3+0)"},
		MaxInsts:       1000000,
	}

	p, cl := startArld(t, args...)
	accepted, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// One worker runs the four units in turn, so once the first is done
	// the kill lands with three still to run.
	clitest.Eventually(t, "the first unit to finish", func() bool {
		st, err := cl.Status(accepted.ID)
		return err == nil && st.Done >= 1
	})
	p.Signal(os.Kill)
	p.Wait()

	p, cl = startArld(t, args...)
	var line string
	clitest.Eventually(t, "the journal replay line", func() bool {
		_, rest, ok := strings.Cut(p.Stderr(), "arld: journal replayed: ")
		if ok {
			line, _, ok = strings.Cut(rest, "\n")
		}
		return ok
	})
	var jobs, finished, requeued int
	if _, err := fmt.Sscanf(line, "%d jobs (%d finished), %d units requeued", &jobs, &finished, &requeued); err != nil ||
		jobs != 1 || finished != 0 || requeued < 1 {
		t.Fatalf("replay line %q (err %v): want 1 unfinished job with at least one unit requeued", line, err)
	}
	again, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != accepted.ID {
		t.Fatalf("re-POST after the restart returned job %s, want %s", again.ID, accepted.ID)
	}
	if st := wait(t, cl, accepted.ID); st.State != service.JobComplete || st.Done != len(req.Configs) {
		t.Fatalf("job ended %s with %d done, want %s with %d", st.State, st.Done, service.JobComplete, len(req.Configs))
	}
	if clitest.Metric(cl.Base, "service_journal_recovered_jobs_total") == 0 {
		t.Error("service_journal_recovered_jobs_total did not count")
	}

	req.IdempotencyKey = "restart-2"
	st, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st = wait(t, cl, st.ID); st.State != service.JobComplete {
		t.Fatalf("repeat job ended %s, want %s", st.State, service.JobComplete)
	}
	if clitest.Metric(cl.Base, "service_units_deduped_total{tenant=test}") < float64(len(req.Configs)) {
		t.Error("the repeat grid did not dedupe")
	}
	drain(t, p, dir)
}

// -coordinator starts no in-process workers, so a submitted unit waits
// for a remote lease; -lease-tick and -lease-ttl run the lease clock,
// which expires a lease that is never renewed and requeues its unit.
func TestCoordinatorLeaseExpiry(t *testing.T) {
	dir := t.TempDir()
	p, cl := startArld(t, "-coordinator", "-store-dir", dir, "-lease-tick", "10ms", "-lease-ttl", "5", "-q")
	if _, err := cl.Submit(service.CampaignRequest{Workloads: []string{"li"}, Configs: []string{"(2+0)"}, MaxInsts: 20000}); err != nil {
		t.Fatal(err)
	}
	// The expiry counter moves before the unit is requeued, so the
	// lease after it waits on the queue for the regrant.
	lease := func(waitMS int64) fleet.LeaseGrant {
		t.Helper()
		body, _ := json.Marshal(fleet.LeaseRequest{Worker: "probe", WaitMS: waitMS})
		resp, err := http.Post(cl.Base+"/api/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var g fleet.LeaseGrant
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&g) != nil {
			t.Fatalf("lease: status %d, want a grant", resp.StatusCode)
		}
		return g
	}
	first := lease(0)
	clitest.Eventually(t, "the unrenewed lease to expire", func() bool {
		return clitest.Metric(cl.Base, "service_leases_expired_total{worker=probe}") >= 1
	})
	if again := lease(10_000); again.Job != first.Job || again.Unit != first.Unit || again.Token <= first.Token {
		t.Fatalf("regrant %+v after expiry, want unit %s[%d] under a newer token than %d",
			again, first.Job, first.Unit, first.Token)
	}
	drain(t, p, dir)
}
