package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/obs"
)

func TestMain(m *testing.M) { clitest.Main(m, "arlreport", main) }

// A full report run writes its -metrics artifact, and the artifact
// validates against the embedded schema.
func TestMetricsArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.metrics.json")
	stdout, stderr, code := clitest.Run(t, "-n", "20000", "-q", "-metrics", path)
	if code != 0 {
		t.Fatalf("arlreport: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "E7: Figure 8") || !strings.Contains(stdout, "run statistics") {
		t.Fatalf("report is missing sections:\n%s", stdout)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(b); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
}
