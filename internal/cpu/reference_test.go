package cpu_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// checkAgainstReference runs tr on cfg with the engine and with the
// reference engine, each under a fresh fault plan from plan (nil for
// none), and fails unless the two Results are deeply equal.
func checkAgainstReference(t *testing.T, label string, tr *cpu.Trace, cfg cpu.Config, plan func() cpu.MemFaulter) {
	t.Helper()
	var opts []cpu.Option
	var refFaults cpu.MemFaulter
	if plan != nil {
		opts = append(opts, cpu.WithFaults(plan()))
		refFaults = plan()
	}
	sim, err := cpu.New(cfg, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := sim.Run(tr)
	if err != nil {
		t.Fatalf("%s: engine: %v", label, err)
	}
	want, err := cpu.RefRun(tr, cfg, refFaults)
	if err != nil {
		t.Fatalf("%s: reference engine: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: engine and reference engine differ:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestEngineMatchesReference runs the twelve workloads on the eight
// Figure 8 machines at 20,000 instructions through both engines and
// expects identical Results.
func TestEngineMatchesReference(t *testing.T) {
	const n = 20_000
	for _, w := range workload.All() {
		p, err := w.Compile(0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cpu.BuildTrace(p, cpu.TraceOptions{MaxInsts: n})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, cfg := range cpu.Figure8Configs() {
			checkAgainstReference(t, w.Name+" "+cfg.Name, tr, cfg, nil)
		}
	}
}

// FuzzEngine compares the engine with the reference engine on seeded
// random traces (randomTrace) over the random-trace machines, with the
// machine's ROB, queue sizes, width and recovery penalty drawn from
// the input and one of the golden's fault plans. Every size is
// bounded, so no input can make a run allocate without limit.
func FuzzEngine(f *testing.F) {
	f.Add(int64(1), uint16(3999), false, uint8(1), uint8(0), uint8(255), uint8(95), uint8(95), uint8(15), uint8(1))
	f.Add(int64(2), uint16(2999), true, uint8(3), uint8(1), uint8(49), uint8(11), uint8(8), uint8(7), uint8(0))
	f.Add(int64(3), uint16(1999), true, uint8(5), uint8(2), uint8(7), uint8(3), uint8(2), uint8(1), uint8(4))
	f.Add(int64(4), uint16(1499), false, uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(9))
	f.Add(int64(5), uint16(2499), true, uint8(6), uint8(0), uint8(100), uint8(20), uint8(30), uint8(3), uint8(2))
	f.Add(int64(6), uint16(2499), false, uint8(4), uint8(2), uint8(200), uint8(60), uint8(5), uint8(11), uint8(0))
	machines := randomConfigs()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, early bool, machine, plan, rob, lsq, lvaq, width, penalty uint8) {
		cfg := machines[int(machine)%len(machines)]
		cfg.ROBSize = 1 + int(rob)
		cfg.LSQSize = 1 + int(lsq)%128
		if cfg.Decoupled() {
			cfg.LVAQSize = 1 + int(lvaq)%128
		}
		cfg.IssueWidth = 1 + int(width)%16
		cfg.MispredictPenalty = int(penalty) % 16
		insts := 1 + int(n)%4000
		tr := randomTrace(seed, insts, early)
		fp := faultPlans[int(plan)%len(faultPlans)]
		var faults func() cpu.MemFaulter
		if fp.build != nil {
			faults = func() cpu.MemFaulter { return fp.build(seed, insts/4+1) }
		}
		label := fmt.Sprintf("seed=%d n=%d early=%t %s faults=%s rob=%d lsq=%d lvaq=%d width=%d pen=%d",
			seed, insts, early, cfg.Name, fp.label, cfg.ROBSize, cfg.LSQSize, cfg.LVAQSize,
			cfg.IssueWidth, cfg.MispredictPenalty)
		checkAgainstReference(t, label, tr, cfg, faults)
	})
}
