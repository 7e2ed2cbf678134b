//go:build unix

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/explore"
)

func TestMain(m *testing.M) { clitest.Main(m, "arlexplore", main) }

// A sweep SIGKILLed mid-frontier writes no artifact. Rerun over the
// same store with -resume, it reads back the points the killed run
// stored, simulates only the rest, and prints a table and writes an
// artifact byte-identical to an uninterrupted run's.
func TestKillResume(t *testing.T) {
	dir := t.TempDir()
	sweep := func(store, out string, extra ...string) []string {
		return append([]string{"-w", "li", "-n", "1000000", "-l1ports", "2,3", "-lvcports", "0,2",
			"-parallel", "1", "-store-dir", filepath.Join(dir, store), "-o", filepath.Join(dir, out)}, extra...)
	}
	cleanTable, stderr, code := clitest.Run(t, sweep("clean", "clean.json", "-q")...)
	if code != 0 {
		t.Fatalf("clean sweep: exit %d\n%s", code, stderr)
	}

	// The sweep is serial, so once the second point's simulation has
	// started the first point is in the store, and the kill lands with
	// points still to simulate.
	const simulating = "  130.li ("
	p := clitest.Start(t, sweep("killed", "killed.json")...)
	clitest.Eventually(t, "the killed sweep's second simulation", func() bool {
		return strings.Count(p.Stderr(), simulating) >= 2
	})
	p.Signal(os.Kill)
	if code := p.Wait(); code != -1 {
		t.Fatalf("sweep exited %d before the kill landed\n%s", code, p.Stderr())
	}
	if _, err := os.Stat(filepath.Join(dir, "killed.json")); !os.IsNotExist(err) {
		t.Fatalf("killed sweep still wrote its artifact (stat: %v)", err)
	}

	resumedPath := filepath.Join(dir, "resumed.json")
	table, stderr, code := clitest.Run(t, sweep("killed", "resumed.json", "-resume")...)
	if code != 0 {
		t.Fatalf("resumed sweep: exit %d\n%s", code, stderr)
	}
	if want := cleanTable + "frontier artifact written to " + resumedPath + "\n"; table != want {
		t.Fatalf("resumed table differs from the clean run's:\n%s\n--- want ---\n%s", table, want)
	}
	resumed, recomputed := strings.Count(stderr, "resumed result/"), strings.Count(stderr, simulating)
	if resumed == 0 || resumed+recomputed != 4 {
		t.Fatalf("resumed sweep read %d points from the store and simulated %d, want at least 1 read and 4 in all\n%s",
			resumed, recomputed, stderr)
	}

	clean, err := os.ReadFile(filepath.Join(dir, "clean.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatalf("resumed artifact differs from the clean run's:\n%s\n--- vs ---\n%s", got, clean)
	}
	if err := explore.ValidateFrontier(got); err != nil {
		t.Fatalf("resumed artifact: %v", err)
	}
}
