package cpu_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
)

// TestSameCycleOrderIsNotAModelInput delivers each cycle's events in
// reverse seq order and expects exactly the Result of the normal
// engine on every random trace and the pinned recovery trace, on every
// machine and fault plan. The seq order of same-cycle events is a
// property of the event stream only; it must never become an input to
// the model.
func TestSameCycleOrderIsNotAModelInput(t *testing.T) {
	const n = 4000
	type traceCase struct {
		label string
		seed  int64
		tr    *cpu.Trace
	}
	var traces []traceCase
	for seed := int64(1); seed <= 6; seed++ {
		for _, early := range []bool{false, true} {
			traces = append(traces, traceCase{fmt.Sprintf("seed %d early=%t", seed, early), seed, randomTrace(seed, n, early)})
		}
	}
	traces = append(traces, traceCase{"pinned recovery", 7, recoveryTrace(n)})
	reordered := 0
	for _, tc := range traces {
		for _, cfg := range randomConfigs() {
			for _, plan := range faultPlans {
				run := func(reversed bool) (*cpu.Result, []byte) {
					trc := &hashTracer{h: sha256.New()}
					opts := []cpu.Option{cpu.WithTracer(trc)}
					if plan.build != nil {
						opts = append(opts, cpu.WithFaults(plan.build(tc.seed, n/4)))
					}
					sim, err := cpu.New(cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					run := sim.Run
					if reversed {
						run = sim.RunEventsReversed
					}
					res, err := run(tc.tr)
					if err != nil {
						t.Fatalf("%s %s faults=%s reversed=%t: %v", tc.label, cfg.Name, plan.label, reversed, err)
					}
					return res, trc.h.Sum(nil)
				}
				want, wantEvents := run(false)
				got, gotEvents := run(true)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s faults=%s: reversed same-cycle order changed the Result",
						tc.label, cfg.Name, plan.label)
				}
				if !bytes.Equal(gotEvents, wantEvents) {
					reordered++
				}
			}
		}
	}
	if reordered == 0 {
		t.Error("reversing the same-cycle order never changed an event stream")
	}
}
