package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/workload"
)

// quickRunner limits to three representative workloads and truncated
// runs so the suite stays fast; the full experiments run via the CLIs
// and benchmarks.
func quickRunner(t *testing.T, names ...string) *Runner {
	t.Helper()
	r := NewRunner()
	r.MaxInsts = 300_000
	if len(names) > 0 {
		r.Workloads = nil
		for _, n := range names {
			w, ok := workload.ByName(n)
			if !ok {
				t.Fatalf("unknown workload %q", n)
			}
			r.Workloads = append(r.Workloads, w)
		}
	}
	return r
}

func TestTable1(t *testing.T) {
	r := quickRunner(t, "compress", "li")
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Insts == 0 || row.LoadPct <= 0 || row.StorePct <= 0 {
			t.Errorf("%s: degenerate row %+v", row.Name, row)
		}
		if row.LoadPct+row.StorePct > 60 {
			t.Errorf("%s: implausible memory mix %+v", row.Name, row)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "129.compress") || !strings.Contains(out, "130.li") {
		t.Errorf("render missing rows:\n%s", out)
	}
}

func TestFigure2AccessRegionLocality(t *testing.T) {
	r := quickRunner(t, "compress", "li", "vortex")
	rows, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		// The headline property: most static memory instructions access
		// a single region (paper: ~98%).
		if row.MultiStaticPct > 15 {
			t.Errorf("%s: %.1f%% multi-region static instructions, expected few",
				row.Name, row.MultiStaticPct)
		}
		var sum float64
		for _, v := range row.StaticPct {
			sum += v
		}
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s: class percentages sum to %.2f", row.Name, sum)
		}
	}
	_ = RenderFigure2(rows)
}

func TestTable2WindowStats(t *testing.T) {
	r := quickRunner(t, "compress")
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	for reg := 0; reg < region.Count; reg++ {
		// The 64-window mean must be about twice the 32-window mean.
		m32, m64 := row.W32[reg].Mean, row.W64[reg].Mean
		if m32 > 0.5 && (m64 < 1.6*m32 || m64 > 2.4*m32) {
			t.Errorf("region %v: w64 mean %.2f vs w32 mean %.2f (want ~2x)",
				region.Region(reg), m64, m32)
		}
	}
	// Window occupancy can never exceed the window size.
	for reg := 0; reg < region.Count; reg++ {
		if row.W32[reg].Mean > 32 || row.W64[reg].Mean > 64 {
			t.Errorf("window mean exceeds window size: %+v", row)
		}
	}
	_ = RenderTable2(rows)
}

func TestPredictorStudyHeadlines(t *testing.T) {
	r := quickRunner(t, "li", "vortex")
	study, err := r.RunPredictorStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range study.Figure4 {
		oneBit := row.AccuracyPct[core.Scheme1Bit.String()]
		hybrid := row.AccuracyPct[core.Scheme1BitHybrid.String()]
		static := row.AccuracyPct[core.SchemeStatic.String()]
		if oneBit < 99.0 {
			t.Errorf("%s: 1BIT accuracy %.2f%%, paper reports >99%%", row.Name, oneBit)
		}
		if hybrid < 99.0 {
			t.Errorf("%s: hybrid accuracy %.2f%%", row.Name, hybrid)
		}
		// STATIC never beats a trained table (ties are possible on short
		// truncated runs where every reference is trivially classified).
		if static > oneBit+0.001 {
			t.Errorf("%s: STATIC (%.2f%%) beats 1BIT (%.2f%%)", row.Name, static, oneBit)
		}
	}
	for _, row := range study.Table3 {
		// Context indexing can only occupy more entries.
		if row.GBH < row.Static || row.Hybrid < row.Static {
			t.Errorf("%s: context occupies fewer entries: %+v", row.Name, row)
		}
	}
	for _, row := range study.Figure5 {
		unlimited := row.AccuracyPct[0][HintsOff]
		small := row.AccuracyPct[8*1024][HintsOff]
		if small > unlimited+0.5 {
			t.Errorf("%s: 8K table (%.3f) beats unlimited (%.3f) by too much",
				row.Name, small, unlimited)
		}
		// Hints can only help (oracle covers most references).
		if row.AccuracyPct[8*1024][HintsOracle]+0.2 < small {
			t.Errorf("%s: oracle hints hurt: %.3f vs %.3f",
				row.Name, row.AccuracyPct[8*1024][HintsOracle], small)
		}
	}
	_ = RenderFigure4(study.Figure4)
	_ = RenderTable3(study.Table3)
	_ = RenderFigure5(study.Figure5)
	_ = RenderAblation(study.Ablation)
}

func TestLVCHitRate(t *testing.T) {
	r := quickRunner(t, "vortex", "gcc")
	rows, err := r.LVCHitRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.StackRefs == 0 {
			t.Errorf("%s: no stack references", row.Name)
		}
		// §3.3: a 4 KB stack cache achieves over 99.5% hit rate.
		if row.HitRate < 0.99 {
			t.Errorf("%s: LVC hit rate %.4f, paper reports >0.995", row.Name, row.HitRate)
		}
	}
	_ = RenderLVC(rows)
}

func TestFigure8Quick(t *testing.T) {
	r := quickRunner(t, "li")
	r.MaxInsts = 0 // full run: truncated traces measure setup, not the kernel
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3), cpu.Conventional(16, 2)}
	rows, err := r.FigureWithConfigs(configs)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Speedup["(2+0)"] != 1.0 {
		t.Errorf("baseline speedup = %.3f", row.Speedup["(2+0)"])
	}
	if row.Speedup["(16+0)"] < 1.05 {
		t.Errorf("li should be bandwidth-starved at (2+0): (16+0) speedup %.3f", row.Speedup["(16+0)"])
	}
	if row.Speedup["(3+3)"] < 1.05 {
		t.Errorf("(3+3) should relieve li: speedup %.3f", row.Speedup["(3+3)"])
	}
	if row.LVCHitRate < 0.99 {
		t.Errorf("LVC hit rate %.4f in (3+3)", row.LVCHitRate)
	}
	_ = RenderFigure8(rows, configs)
}

func TestPenaltySweep(t *testing.T) {
	r := quickRunner(t, "li")
	r.MaxInsts = 0
	rows, err := r.PenaltySweep([]int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// A larger penalty can never help.
	if rows[1].Speedup > rows[0].Speedup+0.001 {
		t.Errorf("penalty 8 (%.3f) beats penalty 1 (%.3f)", rows[1].Speedup, rows[0].Speedup)
	}
	_ = RenderPenaltySweep(rows)
}

func TestContextSweep(t *testing.T) {
	r := quickRunner(t, "li")
	rows, err := r.ContextSweep([]int{0, 8}, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.AccuracyPct < 95 {
			t.Errorf("context (%d,%d): accuracy %.2f", row.GBHBits, row.CIDBits, row.AccuracyPct)
		}
	}
	_ = RenderContextSweep(rows)
}

// TestSteeringAndFastForwardDrivers checks the E12 and E13 drivers'
// headline properties: perfect steering never mispredicts, the ARPT
// lands within 5% of it (the paper's thesis), and turning LVAQ fast
// forwarding off counts no fast forwards and cannot speed the machine.
func TestSteeringAndFastForwardDrivers(t *testing.T) {
	r := quickRunner(t, "go")
	r.MaxInsts = 250_000
	rows, err := r.SteeringPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Results) != len(decouple.AllPolicies) {
		t.Fatalf("steering rows = %+v", rows)
	}
	byPolicy := map[decouple.Policy]PolicyResult{}
	for _, res := range rows[0].Results {
		byPolicy[res.Policy] = res
		if res.Cycles == 0 || res.IPC <= 0 {
			t.Errorf("%v: degenerate result %+v", res.Policy, res)
		}
	}
	perfect, arpt, static := byPolicy[decouple.PolicyPerfect], byPolicy[decouple.PolicyARPT], byPolicy[decouple.PolicyStaticOnly]
	if perfect.Mispredicts != 0 {
		t.Errorf("perfect steering mispredicted %d times", perfect.Mispredicts)
	}
	if perfect.Accuracy != 100 {
		t.Errorf("perfect accuracy = %.2f", perfect.Accuracy)
	}
	if perfect.Cycles > static.Cycles+static.Cycles/50 {
		t.Errorf("perfect (%d cycles) slower than static-only (%d)", perfect.Cycles, static.Cycles)
	}
	if gap := float64(arpt.Cycles) / float64(perfect.Cycles); gap > 1.05 {
		t.Errorf("ARPT steering %.3fx slower than perfect", gap)
	}
	_ = RenderSteering(rows)

	ff, err := r.FastForwardAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(ff) != 1 || ff[0].SpeedupFF < 1 {
		t.Fatalf("fast forwarding slowed the machine: ffwd rows = %+v", ff)
	}
	if ff[0].FastForwards == 0 {
		t.Errorf("no fast forwards with the LVAQ forwarding enabled")
	}
	off, err := r.SimulateConfig(r.Workloads[0], noFastForward())
	if err != nil {
		t.Fatal(err)
	}
	if off.FastForwards != 0 {
		t.Errorf("fast forwards counted while disabled: %d", off.FastForwards)
	}
	_ = RenderFastForward(ff)
}

// TestTaggedSimulationsKeepOwnSeries guards the metric-series
// collision: simulations over a tagged trace share their config name
// with the default-trace run, so they must publish under an extra
// trace label instead of summing into its series, while default-trace
// series keep their label set.
func TestTaggedSimulationsKeepOwnSeries(t *testing.T) {
	r := quickRunner(t, "li")
	r.MaxInsts = 20_000
	r.Obs = obs.NewRegistry()
	w, cfg := r.Workloads[0], cpu.Decoupled(3, 3)
	plain, err := r.SimulateConfigARPT(w, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := r.SimulateConfigARPT(w, 1024, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stormed, err := r.simulateStorm(w, cfg, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"":             plain.Cycles,
		"arpt=1024":    small.Cycles,
		"storm=1:0.05": stormed.Cycles,
	}
	got := map[string]uint64{}
	for _, s := range r.Obs.Snapshot() {
		if s.Name != "sim_cycles_total" {
			continue
		}
		if s.Labels["workload"] != w.Name || s.Labels["config"] != cfg.Name {
			t.Fatalf("unexpected series %v", s.Labels)
		}
		if n := len(s.Labels); n != 2 && n != 3 {
			t.Fatalf("series %v: want workload, config and at most a trace label", s.Labels)
		}
		got[s.Labels["trace"]] = uint64(*s.Value)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sim_cycles_total by trace label = %v, want %v", got, want)
	}
}
