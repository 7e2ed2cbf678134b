package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func TestMain(m *testing.M) { clitest.Main(m, "arlsim", main) }

// -trace-events writes a Chrome trace that parses as JSON; the run's
// own self-check (recovery spans against the simulator's count) exits
// 1 on a mismatch. -metrics beside it writes an artifact that
// validates against the embedded schema.
func TestTraceEventsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "trace.json"), filepath.Join(dir, "run.metrics.json")
	stdout, stderr, code := clitest.Run(t, "-trace-events", trace, "-metrics", metrics,
		"-n", "50000", "-q", "-w", "099.go")
	if code != 0 {
		t.Fatalf("arlsim -trace-events: exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "recovery spans") {
		t.Fatalf("no trace summary on stdout:\n%s", stdout)
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace is not a Chrome trace with events (err %v)", err)
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(m); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
}

// A local Figure 8 run matches the checked-in golden, and a -server run
// against arld's handler is byte-identical to it. The repeat
// submission dedupes, and the in-process workers take their units
// through leases.
func TestServerMatchesLocal(t *testing.T) {
	args := []string{"-fig8", "-w", "li", "-n", "20000", "-q"}
	local, stderr, code := clitest.Run(t, args...)
	if code != 0 {
		t.Fatalf("arlsim %v: exit %d\n%s", args, code, stderr)
	}
	golden, err := os.ReadFile("../../internal/experiments/testdata/figure8_li_20k.golden")
	if err != nil {
		t.Fatal(err)
	}
	if local != string(golden)+"\n" {
		t.Fatalf("local run differs from figure8_li_20k.golden:\n%s", local)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Retries: 1}, st)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Drain)

	for i := 0; i < 2; i++ {
		remote, stderr, code := clitest.Run(t, append(args, "-server", srv.URL)...)
		if code != 0 {
			t.Fatalf("arlsim -server (run %d): exit %d\n%s", i+1, code, stderr)
		}
		if remote != local {
			t.Fatalf("arlsim -server (run %d) differs from the local run:\n%s\n--- vs ---\n%s", i+1, remote, local)
		}
	}
	for _, series := range []string{"service_units_deduped_total{tenant=arlsim}", "service_leases_granted_total{worker=arld}"} {
		if clitest.Metric(srv.URL, series) == 0 {
			t.Errorf("%s did not count", series)
		}
	}
}
