package decouple_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// mixRunner runs the experiment drivers over the package's mixed-region
// test program, whose helper walks global, stack and heap arrays, so
// static-only steering sends its stack work down the wrong pipeline.
func mixRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.Workloads = []*workload.Workload{{
		Name:         "decouple.mix",
		Short:        "mix",
		DefaultScale: 1,
		Source:       func(int) string { return decouple.MixSrc },
	}}
	return r
}

func TestComparePolicies(t *testing.T) {
	rows, err := mixRunner().SteeringPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Results) != len(decouple.AllPolicies) {
		t.Fatalf("steering rows = %+v", rows)
	}
	byPolicy := map[decouple.Policy]experiments.PolicyResult{}
	for _, r := range rows[0].Results {
		byPolicy[r.Policy] = r
		if r.Cycles == 0 || r.IPC <= 0 {
			t.Errorf("%v: degenerate result %+v", r.Policy, r)
		}
	}
	// Perfect steering never mispredicts and is at least as fast as
	// static-only steering.
	perfect, static := byPolicy[decouple.PolicyPerfect], byPolicy[decouple.PolicyStaticOnly]
	if perfect.Mispredicts != 0 {
		t.Errorf("perfect steering mispredicted %d times", perfect.Mispredicts)
	}
	if perfect.Accuracy != 100 {
		t.Errorf("perfect accuracy = %.2f", perfect.Accuracy)
	}
	if perfect.Cycles > static.Cycles+static.Cycles/50 {
		t.Errorf("perfect (%d cycles) slower than static-only (%d)", perfect.Cycles, static.Cycles)
	}
	// The ARPT must land close to perfect — that is the paper's thesis.
	gap := float64(byPolicy[decouple.PolicyARPT].Cycles) / float64(perfect.Cycles)
	if gap > 1.05 {
		t.Errorf("ARPT steering %.3fx slower than perfect", gap)
	}
}

func TestCompareFastForward(t *testing.T) {
	r := mixRunner()
	rows, err := r.FastForwardAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	w := r.Workloads[0]
	with, err := r.SimulateConfig(w, cpu.Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	off := cpu.Decoupled(3, 3)
	off.Name = "(3+3,noffwd)"
	off.FastForward = false
	without, err := r.SimulateConfig(w, off)
	if err != nil {
		t.Fatal(err)
	}
	if without.FastForwards != 0 {
		t.Errorf("fast forwards counted while disabled: %d", without.FastForwards)
	}
	if with.Cycles > without.Cycles {
		t.Errorf("fast forwarding slowed the machine: %d vs %d", with.Cycles, without.Cycles)
	}
	if want := float64(without.Cycles) / float64(with.Cycles); rows[0].SpeedupFF != want || rows[0].FastForwards != with.FastForwards {
		t.Errorf("ffwd row %+v disagrees with its simulations (speedup %.3f, %d fast forwards)", rows[0], want, with.FastForwards)
	}
}
