package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens in testdata/")

// TestAblationGolden pins the rendered E12 steering-policy, E13
// fast-forwarding and E15 misprediction-storm sections on three
// workloads at a short instruction budget. Every stormed E15 row
// mispredicts (go even unstormed), and the raw E12 cells follow the
// rendered ratios, so cycle, mispredict and accuracy drift shows even
// where the three-decimal ratios round it away.
// Rewrite with -update.
func TestAblationGolden(t *testing.T) {
	r := quickRunner(t, "li", "go", "vortex")
	r.MaxInsts = 20_000
	var b strings.Builder
	steer, err := r.SteeringPolicies()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderSteering(steer))
	for _, row := range steer {
		for _, res := range row.Results {
			fmt.Fprintf(&b, "%s %s cycles=%d ipc=%.4f mispredicts=%d accuracy=%.4f\n",
				row.Name, res.Policy, res.Cycles, res.IPC, res.Mispredicts, res.Accuracy)
		}
	}
	ff, err := r.FastForwardAblation()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFastForward(ff))
	storm, err := r.RecoveryStorm(1, []float64{0, 0.01, 0.05}, []int{2, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderRecoveryStorm(storm))

	const path = "testdata/ablations_20k.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("E12/E13/E15 sections diverge from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
