package experiments

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/workload"
)

// countingWorkload wraps an existing workload's source under a fresh
// name (dodging the package-level compile cache) so the test can count
// how many times the Runner actually compiles it.
func countingWorkload(t *testing.T, base, name string, compiles *atomic.Int32) *workload.Workload {
	t.Helper()
	bw, ok := workload.ByName(base)
	if !ok {
		t.Fatalf("unknown base workload %q", base)
	}
	return &workload.Workload{
		Name:         name,
		Short:        name,
		DefaultScale: bw.DefaultScale,
		Source: func(scale int) string {
			compiles.Add(1)
			return bw.Source(scale)
		},
	}
}

// TestRunnerMemosSingleFlight hammers Program/Profile/Trace from many
// goroutines and asserts the workload compiles exactly once and every
// caller observes the identical memoized objects.
func TestRunnerMemosSingleFlight(t *testing.T) {
	var compiles atomic.Int32
	w := countingWorkload(t, "compress", "test.memo-singleflight", &compiles)
	r := NewRunner()
	r.Workloads = []*workload.Workload{w}
	r.MaxInsts = 50_000

	const callers = 16
	programs := make([]any, callers)
	profiles := make([]any, callers)
	traces := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := r.Program(w)
			if err != nil {
				t.Errorf("Program: %v", err)
				return
			}
			pr, err := r.Profile(w)
			if err != nil {
				t.Errorf("Profile: %v", err)
				return
			}
			tr, err := r.Trace(w)
			if err != nil {
				t.Errorf("Trace: %v", err)
				return
			}
			programs[i], profiles[i], traces[i] = p, pr, tr
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := compiles.Load(); n != 1 {
		t.Errorf("workload compiled %d times, want exactly 1", n)
	}
	for i := 1; i < callers; i++ {
		if programs[i] != programs[0] {
			t.Errorf("caller %d got a different *prog.Program", i)
		}
		if profiles[i] != profiles[0] {
			t.Errorf("caller %d got a different *profile.Profile", i)
		}
		if traces[i] != traces[0] {
			t.Errorf("caller %d got a different *cpu.Trace", i)
		}
	}
}

// TestParallelMatchesSerial asserts the parallel harness renders
// byte-identical tables to the serial one, across the profiling,
// prediction and timing drivers.
func TestParallelMatchesSerial(t *testing.T) {
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	render := func(parallel int) string {
		r := quickRunner(t, "compress", "li", "vortex")
		r.Parallel = parallel
		var b strings.Builder
		t1, err := r.Table1()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderTable1(t1))
		study, err := r.RunPredictorStudy()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderFigure4(study.Figure4))
		b.WriteString(RenderTable3(study.Table3))
		ctx, err := r.ContextSweep([]int{0, 8}, []int{0, 8})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderContextSweep(ctx))
		f8, err := r.FigureWithConfigs(configs)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderFigure8(f8, configs))
		pen, err := r.PenaltySweep([]int{1, 8})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderPenaltySweep(pen))
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("parallel output differs from serial output\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// memoKeys lists the keys a memo has claimed (sorted).
func memoKeys[T any](c *memo[T]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// defaultTraces counts the memoized default-steering traces (the keys
// without a trace tag).
func defaultTraces(r *Runner) int {
	n := 0
	for _, k := range memoKeys(&r.traces) {
		if !strings.Contains(k, "|") {
			n++
		}
	}
	return n
}

// TestTraceAndBaselineReuse asserts a report-style sequence builds one
// default trace per workload, that the penalty sweep rides entirely on
// simulation results Figure 8 already memoized, and that E12's ARPT
// arm, E13's fast-forwarding arm and E15's rate-0 arms add no
// simulation after Figure 8 + E11: the only new units are the tagged
// policy arms and the fast-forwarding-off machine.
func TestTraceAndBaselineReuse(t *testing.T) {
	r := quickRunner(t, "compress", "li")
	r.MaxInsts = 100_000
	r.Parallel = 4
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	if _, err := r.FigureWithConfigs(configs); err != nil {
		t.Fatal(err)
	}
	sims := r.results.len()
	if want := len(r.Workloads) * len(configs); sims != want {
		t.Errorf("result memo holds %d entries after Figure8, want %d", sims, want)
	}
	// Penalty 1 is Decoupled(3,3)'s default, and the (2+0) baseline is
	// configs[0]: that sweep point must not trigger a new simulation.
	if _, err := r.PenaltySweep([]int{1}); err != nil {
		t.Fatal(err)
	}
	if got := r.results.len(); got != sims {
		t.Errorf("penalty sweep added %d simulations, want 0 (baseline and (3+3) memoized)", got-sims)
	}
	penalties := []int{1, 16}
	if _, err := r.PenaltySweep(penalties); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]bool)
	for _, k := range memoKeys(&r.results) {
		before[k] = true
	}

	if _, err := r.SteeringPolicies(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FastForwardAblation(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RecoveryStorm(1, []float64{0}, penalties); err != nil {
		t.Fatal(err)
	}
	var added []string
	for _, k := range memoKeys(&r.results) {
		if before[k] {
			continue
		}
		added = append(added, k)
		if !strings.Contains(k, "|policy=") && !strings.Contains(k, "(3+3,noffwd)") {
			t.Errorf("ablations simulated %q, which Figure 8 + E11 already cover", k)
		}
	}
	if want := len(r.Workloads) * len(decouple.AllPolicies); len(added) != want {
		t.Errorf("ablations added %d simulations, want %d (4 tagged policies + ffwd off per workload):\n%s",
			len(added), want, strings.Join(added, "\n"))
	}
	if got, want := defaultTraces(r), len(r.Workloads); got != want {
		t.Errorf("trace memo holds %d default traces, want %d (one per workload)", got, want)
	}
}

// TestSteeringReusesMemoTrace asserts the steering ablation takes the
// PolicyARPT trace and (3+3) simulation from the Runner memo: one
// default trace plus one tagged trace per other policy, and the ARPT
// arm is the very unit SimulateConfig memoizes.
func TestSteeringReusesMemoTrace(t *testing.T) {
	r := quickRunner(t, "compress")
	r.MaxInsts = 100_000
	if _, err := r.SteeringPolicies(); err != nil {
		t.Fatal(err)
	}
	if got := defaultTraces(r); got != 1 {
		t.Errorf("trace memo holds %d default traces, want 1", got)
	}
	if got, want := r.traces.len(), len(decouple.AllPolicies); got != want {
		t.Errorf("trace memo holds %d entries, want %d (default + one per other policy)", got, want)
	}
	sims := r.results.len()
	if _, err := r.SimulateConfig(r.Workloads[0], cpu.Decoupled(3, 3)); err != nil {
		t.Fatal(err)
	}
	if got := r.results.len(); got != sims {
		t.Errorf("(3+3) on the default trace was not memoized by the ARPT arm")
	}
}

// TestFigure8AverageComplete guards the Figure8Average bugfix: the
// average row must carry an initialized Mispredicts map, averaged
// mispredict counts, and the averaged (3+3) LVC hit rate.
func TestFigure8AverageComplete(t *testing.T) {
	configs := []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3)}
	rows := []Figure8Row{
		{
			Name:        "a",
			Speedup:     map[string]float64{"(2+0)": 1, "(3+3)": 1.5},
			IPC:         map[string]float64{"(2+0)": 2, "(3+3)": 3},
			Mispredicts: map[string]uint64{"(2+0)": 0, "(3+3)": 100},
			LVCHitRate:  0.998,
		},
		{
			Name:        "b",
			Speedup:     map[string]float64{"(2+0)": 1, "(3+3)": 1.3},
			IPC:         map[string]float64{"(2+0)": 2, "(3+3)": 2.6},
			Mispredicts: map[string]uint64{"(2+0)": 0, "(3+3)": 300},
			LVCHitRate:  1.0,
		},
	}
	avg := Figure8Average(rows, configs)
	if avg.Mispredicts == nil {
		t.Fatal("average row has nil Mispredicts map")
	}
	// Writing through the map must not panic (the original bug: a nil
	// map write in renderers extending the average row).
	avg.Mispredicts["probe"] = 1
	if got := avg.Mispredicts["(3+3)"]; got != 200 {
		t.Errorf("average (3+3) mispredicts = %d, want 200", got)
	}
	if avg.LVCHitRate < 0.9989 || avg.LVCHitRate > 0.9991 {
		t.Errorf("average LVC hit rate = %v, want 0.999", avg.LVCHitRate)
	}
	if got := avg.Speedup["(3+3)"]; got < 1.399 || got > 1.401 {
		t.Errorf("average (3+3) speedup = %v, want 1.4", got)
	}
	// Empty input still yields writable maps.
	empty := Figure8Average(nil, configs)
	empty.Mispredicts["probe"] = 1
	empty.Speedup["probe"] = 1
	empty.IPC["probe"] = 1
}
