package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/explore"
	"repro/internal/obs"
)

func TestMain(m *testing.M) { clitest.Main(m, "arlmetrics", main) }

// arlmetrics accepts a metrics artifact and a frontier artifact, each
// under its own schema, and exits 1 on a document that fails its
// schema.
func TestValidate(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	reg.Counter("sim_cycles_total", "cycles", obs.Labels{"workload": "130.li"}).Add(7)
	var buf bytes.Buffer
	if err := obs.EncodeArtifact(&buf, reg.Artifact(obs.RunMeta{Cmd: "arlsim", GoVersion: "go", WallSeconds: 1})); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "run.metrics.json")
	write(t, metrics, buf.Bytes())

	front, err := explore.Encode(&explore.Frontier{
		Schema:    explore.FrontierSchema,
		Grid:      explore.Grid{L1Ports: []int{2}, LVCPorts: []int{2}},
		Seed:      1,
		Workloads: []string{"compress"},
		MaxInsts:  1000,
		Points: []explore.Eval{{
			Point: explore.Point{Name: "(2+2)"},
			IPC:   1, IPCByWorkload: map[string]float64{"compress": 1},
			TotalKB: 72, Ports: 4, Pareto: true, Rank: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	frontier := filepath.Join(dir, "frontier.json")
	write(t, frontier, front)

	stdout, stderr, code := clitest.Run(t, metrics, frontier)
	if code != 0 {
		t.Fatalf("arlmetrics on valid artifacts: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{obs.ArtifactSchema, explore.FrontierSchema} {
		if !strings.Contains(stdout, "ok ("+want) {
			t.Errorf("no %s summary:\n%s", want, stdout)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	write(t, bad, bytes.Replace(buf.Bytes(), []byte(obs.ArtifactSchema), []byte("arl-metrics/v0"), 1))
	if _, stderr, code := clitest.Run(t, "-q", metrics, bad); code != 1 || !strings.Contains(stderr, bad) {
		t.Fatalf("arlmetrics on a wrong schema tag: exit %d, want 1 naming %s\n%s", code, bad, stderr)
	}
}

func write(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
