package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/profile"
)

func TestRecoveryStormQuick(t *testing.T) {
	r := quickRunner(t, "go")
	r.MaxInsts = 60_000
	rates := []float64{0, 0.05}
	penalties := []int{2, 16}
	rows, err := r.RecoveryStorm(11, rates, penalties)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rates)*len(penalties) {
		t.Fatalf("got %d rows, want %d", len(rows), len(rates)*len(penalties))
	}
	byKey := make(map[[2]float64]StormRow)
	for _, row := range rows {
		if row.Recoveries != row.Mispredicts {
			t.Fatalf("row %+v: recoveries != mispredicts", row)
		}
		byKey[[2]float64{row.Rate, float64(row.Penalty)}] = row
	}
	// A storm must inject strictly more mispredictions than no storm.
	calm := byKey[[2]float64{0, 2}]
	stormy := byKey[[2]float64{0.05, 2}]
	if stormy.Mispredicts <= calm.Mispredicts {
		t.Fatalf("storm mispredicts %d <= calm %d", stormy.Mispredicts, calm.Mispredicts)
	}
	// At the same storm rate, a larger penalty cannot be faster.
	cheap := byKey[[2]float64{0.05, 2}]
	dear := byKey[[2]float64{0.05, 16}]
	if dear.Speedup > cheap.Speedup+1e-9 {
		t.Fatalf("penalty 16 speedup %.4f > penalty 2 speedup %.4f", dear.Speedup, cheap.Speedup)
	}

	out := RenderRecoveryStorm(rows)
	if !strings.Contains(out, "E15") || !strings.Contains(out, "099.go") {
		t.Fatalf("render missing headline or workload:\n%s", out)
	}
}

func TestRecoveryStormDeterministic(t *testing.T) {
	rates := []float64{0.02}
	penalties := []int{8}
	var first []StormRow
	for i := 0; i < 2; i++ {
		r := quickRunner(t, "li")
		r.MaxInsts = 40_000
		rows, err := r.RecoveryStorm(77, rates, penalties)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("row counts differ: %d vs %d", len(rows), len(first))
		}
		for j := range rows {
			if rows[j] != first[j] {
				t.Fatalf("same-seed storm rows differ:\n%+v\n%+v", first[j], rows[j])
			}
		}
	}
}

// TestWorkloadTimeoutDegrades forces a watchdog expiry on one workload
// and checks the batch survives with a structured WorkloadError
// instead of aborting.
func TestWorkloadTimeoutDegrades(t *testing.T) {
	r := quickRunner(t, "compress", "li")
	r.MaxInsts = 2_000_000
	r.Degrade = true
	r.WorkloadTimeout = 1 * time.Nanosecond // expires before any stage finishes

	rows, err := r.Table1()
	if err != nil {
		t.Fatalf("degraded batch aborted: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("all workloads should have timed out, got %d rows", len(rows))
	}
	errs := r.Errors()
	if len(errs) != 2 {
		t.Fatalf("recorded %d errors, want 2: %v", len(errs), errs)
	}
	for _, we := range errs {
		if !we.Timeout() {
			t.Fatalf("error not classified as timeout: %v", we)
		}
		if !errors.Is(we, context.DeadlineExceeded) {
			t.Fatalf("errors.Is(DeadlineExceeded) = false for %v", we)
		}
		if we.Stage != "profile" {
			t.Fatalf("stage = %q, want profile", we.Stage)
		}
	}
	out := RenderWorkloadErrors(errs)
	if !strings.Contains(out, "timeout") || !strings.Contains(out, "compress") {
		t.Fatalf("render missing timeout marker:\n%s", out)
	}
	if RenderWorkloadErrors(nil) != "" {
		t.Fatalf("empty error list should render nothing")
	}
}

// TestWorkloadFailurePartialReport checks graceful degradation: with
// one workload's memo holding a genuine (non-transient) stage defect,
// the report covers the survivors. Timeouts and cancellations are no
// longer sticky — see TestTransientFailureDoesNotPoisonMemo — so the
// poison here is a persistent workload defect.
func TestWorkloadFailurePartialReport(t *testing.T) {
	r := quickRunner(t, "compress", "li")
	r.MaxInsts = 50_000
	r.Degrade = true
	we := &WorkloadError{Workload: "130.li", Stage: "profile",
		Err: errors.New("synthetic persistent defect")}
	if _, err := r.profiles.get("130.li", func() (*profile.Profile, error) {
		return nil, we
	}); err == nil {
		t.Fatal("poisoning the memo failed")
	}

	rows, err := r.Table1()
	if err != nil {
		t.Fatalf("degraded batch aborted: %v", err)
	}
	if len(rows) != 1 || rows[0].Name != "129.compress" {
		t.Fatalf("rows = %+v, want just 129.compress", rows)
	}
	errs := r.Errors()
	if len(errs) != 1 || errs[0].Workload != "130.li" || errs[0].Timeout() {
		t.Fatalf("errors = %v, want one persistent li defect", errs)
	}
}

// TestBatchAbortsWithoutDegrade pins the default contract: the same
// failure without Degrade aborts the batch.
func TestBatchAbortsWithoutDegrade(t *testing.T) {
	r := quickRunner(t, "compress")
	r.MaxInsts = 1_000_000
	r.WorkloadTimeout = 1 * time.Nanosecond
	if _, err := r.Table1(); err == nil {
		t.Fatal("timed-out batch returned no error without Degrade")
	} else {
		var we *WorkloadError
		if !errors.As(err, &we) {
			t.Fatalf("error is not a WorkloadError: %v", err)
		}
	}
}

// TestRunnerCtxCancelsSimulation cancels the campaign context after
// the shared artifacts are memoized, so each study's own pass is what
// must notice. E8 is answered by the profile pass, so its case leaves
// the profile to be computed under the cancelled context. A fault
// campaign reads only the program: its golden run must notice.
func TestRunnerCtxCancelsSimulation(t *testing.T) {
	for _, tc := range []struct {
		name        string
		keepProfile bool
		run         func(r *Runner) error
	}{
		{"SimulateConfig", true, func(r *Runner) error {
			_, err := r.SimulateConfig(r.Workloads[0], cpu.Conventional(2, 2))
			return err
		}},
		{"RunPredictorStudy", true, func(r *Runner) error {
			_, err := r.RunPredictorStudy()
			return err
		}},
		{"ContextSweep", true, func(r *Runner) error {
			_, err := r.ContextSweep([]int{0, 8}, []int{0, 8})
			return err
		}},
		{"StaticHintStudy", true, func(r *Runner) error {
			_, err := r.StaticHintStudy()
			return err
		}},
		{"LVCHitRate", false, func(r *Runner) error {
			_, err := r.LVCHitRate()
			return err
		}},
		{"FaultCampaign", false, func(r *Runner) error {
			_, err := r.FaultCampaign(r.Workloads[0], 9, 2, 3, cpu.Decoupled(3, 3))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := quickRunner(t, "li")
			r.MaxInsts = 40_000
			w := r.Workloads[0]
			if _, err := r.Program(w); err != nil {
				t.Fatal(err)
			}
			if tc.keepProfile {
				if _, err := r.Profile(w); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			r.Ctx = ctx
			if err := tc.run(r); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}
