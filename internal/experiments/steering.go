package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/workload"
)

// SteeringRow is one cell of the E12 steering-policy ablation: the
// (3+3) machine driven by different dispatch-steering policies.
type SteeringRow struct {
	Name    string
	Results []PolicyResult
}

// PolicyResult is one policy's (3+3) simulation in E12.
type PolicyResult struct {
	Policy      decouple.Policy
	Cycles      uint64
	IPC         float64
	Mispredicts uint64
	Accuracy    float64 // steering accuracy over the trace, percent
}

// SteeringPolicies runs E12 over the runner's workloads: each policy's
// trace through the (3+3) machine. PolicyARPT steers exactly like the
// default trace, so its arm is Figure 8's (3+3) simulation.
func (r *Runner) SteeringPolicies() ([]SteeringRow, error) {
	cfg := cpu.Decoupled(3, 3)
	return forEach(r, func(w *workload.Workload) (SteeringRow, error) {
		row := SteeringRow{Name: w.Name}
		for _, pol := range decouple.AllPolicies {
			tr, err := r.tracePolicy(w, pol)
			if err != nil {
				return SteeringRow{}, err
			}
			res, err := r.simulate(w, cfg, policyTag(pol), func() (*cpu.Trace, error) { return tr, nil })
			if err != nil {
				return SteeringRow{}, err
			}
			row.Results = append(row.Results, PolicyResult{
				Policy:      pol,
				Cycles:      res.Cycles,
				IPC:         res.IPC(),
				Mispredicts: res.ARPTMispredicts,
				Accuracy:    tr.PredictorStats.Accuracy(),
			})
		}
		return row, nil
	})
}

// RenderSteering prints E12: cycles of each policy relative to perfect
// steering.
func RenderSteering(rows []SteeringRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: (3+3) steering policy (cycles relative to perfect steering)\n")
	fmt.Fprintf(&b, "%-14s", "Benchmark")
	for _, p := range decouple.AllPolicies {
		fmt.Fprintf(&b, "%15s", p)
	}
	fmt.Fprintln(&b)
	for _, row := range rows {
		var perfect uint64
		for _, res := range row.Results {
			if res.Policy == decouple.PolicyPerfect {
				perfect = res.Cycles
			}
		}
		fmt.Fprintf(&b, "%-14s", row.Name)
		for _, res := range row.Results {
			rel := float64(res.Cycles) / float64(perfect)
			fmt.Fprintf(&b, "%15.3f", rel)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FFRow is one row of the E13 fast-forwarding ablation.
type FFRow struct {
	Name         string
	SpeedupFF    float64 // cycles(without) / cycles(with)
	FastForwards uint64
}

// noFastForward is the E13 (3+3) machine with LVAQ fast forwarding
// off. Its name is a local label outside the canonical config grammar
// (nothing parses it back); it exists so the arm's metrics never merge
// into Figure 8's (3+3) series.
func noFastForward() cpu.Config {
	cfg := cpu.Decoupled(3, 3)
	cfg.Name = "(3+3,noffwd)"
	cfg.FastForward = false
	return cfg
}

// FastForwardAblation runs E13: (3+3) with and without LVAQ fast
// forwarding. The enabled arm is Figure 8's (3+3) simulation.
func (r *Runner) FastForwardAblation() ([]FFRow, error) {
	return forEach(r, func(w *workload.Workload) (FFRow, error) {
		with, err := r.SimulateConfig(w, cpu.Decoupled(3, 3))
		if err != nil {
			return FFRow{}, err
		}
		without, err := r.SimulateConfig(w, noFastForward())
		if err != nil {
			return FFRow{}, err
		}
		return FFRow{
			Name:         w.Name,
			SpeedupFF:    float64(without.Cycles) / float64(with.Cycles),
			FastForwards: with.FastForwards,
		}, nil
	})
}

// RenderFastForward prints E13.
func RenderFastForward(rows []FFRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: LVAQ fast forwarding on the (3+3) machine\n")
	fmt.Fprintf(&b, "%-14s %12s %14s\n", "Benchmark", "speedup", "fast forwards")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.3f %14d\n", r.Name, r.SpeedupFF, r.FastForwards)
	}
	return b.String()
}
