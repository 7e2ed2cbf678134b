package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/static"
	"repro/internal/workload"
)

// goldenStats renders one classifier's raw counters, and its table
// occupancy when it has a table.
func goldenStats(b *strings.Builder, w *workload.Workload, label string, c *core.Classifier) {
	s := c.Stats
	fmt.Fprintf(b, "%s %s total=%d correct=%d static=%d hint=%d/%d table=%d/%d",
		w.Short, label, s.Total, s.Correct, s.StaticCovered,
		s.HintCorrect, s.HintCovered, s.TableCorrect, s.TableLookups)
	if c.Table != nil {
		fmt.Fprintf(b, " occupied=%d", c.Table.Occupied())
	}
	b.WriteByte('\n')
}

// TestPredictorGolden pins the raw ClassifyStats counters (and table
// occupancies) of every classifier in the predictor study, the E10
// context sweep and the E14 static-hint study on four workloads at a
// short instruction budget. The rendered figures round to two
// decimals, so a drift of a few references shows only here.
// Rewrite with -update.
func TestPredictorGolden(t *testing.T) {
	r := quickRunner(t, "go", "gcc", "li", "tomcatv")
	r.MaxInsts = 20_000
	var b strings.Builder
	for _, w := range r.Workloads {
		p, err := r.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := r.Profile(w)
		if err != nil {
			t.Fatal(err)
		}

		// Figure 4, Table 3, Figure 5 and E9.
		cs, err := r.predictorClassifiers(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.AllSchemes {
			goldenStats(&b, w, "fig4 "+s.String(), cs.schemes[s])
		}
		for _, s := range []core.Scheme{core.Scheme2Bit, core.Scheme2BitHybrid} {
			goldenStats(&b, w, "e9 "+s.String(), cs.schemes[s])
		}
		for i, size := range Figure5Sizes {
			for j, mode := range figure5Modes {
				goldenStats(&b, w, fmt.Sprintf("fig5 size=%d hints=%v", size, mode), cs.sized[i][j])
			}
		}

		// E10 on the report's grid.
		gbh, cid := []int{0, 8, 16}, []int{0, 7, 24}
		cells, err := contextClassifiers(gbh, cid)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.classifyPass(w, cells, nil); err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			goldenStats(&b, w, fmt.Sprintf("e10 gbh=%d cid=%d", gbh[i/len(cid)], cid[i%len(cid)]), c)
		}

		// E14; the disagreement count comes from the study itself.
		hintCls, err := staticHintClassifiers(p, pr.Oracle(), static.Analyze(p).HintAt)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.classifyPass(w, hintCls, nil); err != nil {
			t.Fatal(err)
		}
		for i, mode := range StaticHintModes {
			goldenStats(&b, w, fmt.Sprintf("e14 hints=%v", mode), hintCls[i])
		}
		row, err := r.staticHintPass(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s e14 disagreements=%d\n", w.Short, row.Disagreements)
	}

	const path = "testdata/predictor_20k.golden"
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
		t.Errorf("classifier counters diverge from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
