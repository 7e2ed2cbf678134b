package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/obs"
)

// tenInstSrc is a fixed 10-instruction straight-line workload: four
// $sp-relative memory references (two stores, two loads, each load
// forwarding from the store before it) plus ALU glue. Every reference
// is statically covered, so a decoupled machine steers all four to the
// LVAQ and the pipeline schedule below is fully deterministic.
const tenInstSrc = `
.text
main:
	addi $sp, $sp, -8
	addi $t0, $zero, 7
	sw $t0, 0($sp)
	lw $t1, 0($sp)
	addi $t1, $t1, 1
	sw $t1, 4($sp)
	lw $v0, 4($sp)
	add $t2, $t1, $t0
	addi $sp, $sp, 8
	jr $ra
`

func tenInstTrace(t *testing.T, opts TraceOptions) *Trace {
	t.Helper()
	p, err := asm.Assemble("ten.s", tenInstSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	tr, err := BuildTrace(p, opts)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(tr.Insts) != 10 {
		t.Fatalf("workload has %d instructions, want 10", len(tr.Insts))
	}
	return tr
}

// fakeTracer records every emitted event.
type fakeTracer struct{ evs []obs.Event }

func (f *fakeTracer) Emit(ev obs.Event) { f.evs = append(f.evs, ev) }

// TestTracerEventSequence pins the exact event stream of the
// 10-instruction workload on the (3+3) machine: the observer seam must
// report precisely what the pipeline did, in emission order. Events
// delivered in the same cycle (complete, addr-ready) come in seq order.
func TestTracerEventSequence(t *testing.T) {
	tr := tenInstTrace(t, TraceOptions{})
	var ft fakeTracer
	sim, err := New(Decoupled(3, 3), WithTracer(&ft))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 8 || res.Insts != 10 || res.Recoveries != 0 {
		t.Fatalf("result = cycles %d insts %d recoveries %d, want 8/10/0",
			res.Cycles, res.Insts, res.Recoveries)
	}

	ev := func(cycle, seq int64, kind obs.EventKind, arg int64) obs.Event {
		return obs.Event{Cycle: cycle, Seq: seq, Kind: kind, Arg: arg}
	}
	storeArg := obs.DispatchArg(true, false)
	loadArg := obs.DispatchArg(true, true)
	lvcWrMem := obs.CacheArg(true, true, obs.LevelMem)
	lvcWrHit := obs.CacheArg(true, true, obs.LevelFirst)
	want := []obs.Event{
		// Cycle 1: all ten ops dispatch; the four memory ops enter the LVAQ.
		ev(1, 0, obs.EvDispatch, 0),
		ev(1, 1, obs.EvDispatch, 0),
		ev(1, 2, obs.EvDispatch, storeArg),
		ev(1, 2, obs.EvQueueEnter, obs.QueueLVAQ),
		ev(1, 3, obs.EvDispatch, loadArg),
		ev(1, 3, obs.EvQueueEnter, obs.QueueLVAQ),
		ev(1, 4, obs.EvDispatch, 0),
		ev(1, 5, obs.EvDispatch, storeArg),
		ev(1, 5, obs.EvQueueEnter, obs.QueueLVAQ),
		ev(1, 6, obs.EvDispatch, loadArg),
		ev(1, 6, obs.EvQueueEnter, obs.QueueLVAQ),
		ev(1, 7, obs.EvDispatch, 0),
		ev(1, 8, obs.EvDispatch, 0),
		ev(1, 9, obs.EvDispatch, 0),
		// Cycle 2: the three ops with no outstanding operands issue.
		ev(2, 0, obs.EvIssue, 0),
		ev(2, 1, obs.EvIssue, 0),
		ev(2, 9, obs.EvIssue, 0),
		// Cycle 3: their results complete, in seq order; dependents
		// issue (memory ops take their AGU slot).
		ev(3, 0, obs.EvComplete, 0),
		ev(3, 1, obs.EvComplete, 0),
		ev(3, 9, obs.EvComplete, 0),
		ev(3, 2, obs.EvIssue, 0),
		ev(3, 3, obs.EvIssue, 0),
		ev(3, 5, obs.EvIssue, 0),
		ev(3, 6, obs.EvIssue, 0),
		ev(3, 8, obs.EvIssue, 0),
		// Cycle 4: addresses resolve, in seq order with the completion
		// due the same cycle; the first store misses the cold LVC all
		// the way to memory, both loads forward from older stores.
		ev(4, 0, obs.EvCommit, 0),
		ev(4, 1, obs.EvCommit, 0),
		ev(4, 2, obs.EvAddrReady, 0),
		ev(4, 3, obs.EvAddrReady, 0),
		ev(4, 5, obs.EvAddrReady, 0),
		ev(4, 6, obs.EvAddrReady, 0),
		ev(4, 8, obs.EvComplete, 0),
		ev(4, 2, obs.EvCacheAccess, lvcWrMem),
		ev(4, 2, obs.EvComplete, 0),
		ev(4, 3, obs.EvForward, 0),
		// Cycles 5-8: the chain drains and retires in order.
		ev(5, 2, obs.EvCommit, 0),
		ev(5, 3, obs.EvComplete, 0),
		ev(5, 4, obs.EvIssue, 0),
		ev(6, 3, obs.EvCommit, 0),
		ev(6, 4, obs.EvComplete, 0),
		ev(6, 5, obs.EvCacheAccess, lvcWrHit),
		ev(6, 5, obs.EvComplete, 0),
		ev(6, 6, obs.EvForward, 0),
		ev(6, 7, obs.EvIssue, 0),
		ev(7, 4, obs.EvCommit, 0),
		ev(7, 5, obs.EvCommit, 0),
		ev(7, 6, obs.EvComplete, 0),
		ev(7, 7, obs.EvComplete, 0),
		ev(8, 6, obs.EvCommit, 0),
		ev(8, 7, obs.EvCommit, 0),
		ev(8, 8, obs.EvCommit, 0),
		ev(8, 9, obs.EvCommit, 0),
	}
	if len(ft.evs) != len(want) {
		t.Fatalf("got %d events, want %d:\n%v", len(ft.evs), len(want), ft.evs)
	}
	for i := range want {
		if ft.evs[i] != want[i] {
			t.Errorf("event %d = {c%d s%d %v arg=%d}, want {c%d s%d %v arg=%d}",
				i, ft.evs[i].Cycle, ft.evs[i].Seq, ft.evs[i].Kind, ft.evs[i].Arg,
				want[i].Cycle, want[i].Seq, want[i].Kind, want[i].Arg)
		}
	}
}

// TestTracerRecoverySpansMatchResult forces one steering misprediction
// and checks the acceptance contract end to end: the emitted
// detect→cancel→replay events pair into exactly Result.Recoveries
// Chrome spans.
func TestTracerRecoverySpansMatchResult(t *testing.T) {
	tr := tenInstTrace(t, TraceOptions{
		// Flip the steering prediction of the second memory reference
		// (the first load): it dispatches to the LSQ, its actual region
		// is stack, and address generation triggers recovery.
		SteerFault: func(ref uint64, pred core.Prediction) core.Prediction {
			if ref == 1 {
				return !pred
			}
			return pred
		},
	})
	ring := obs.NewRing(0)
	sim, err := New(Decoupled(3, 3), WithTracer(ring))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.ARPTMispredicts != 1 {
		t.Fatalf("recoveries=%d mispredicts=%d, want 1/1", res.Recoveries, res.ARPTMispredicts)
	}

	// Protocol order in the event stream: detect, then cancel, then
	// replay, all for the same seq.
	var detect, cancel, replay []obs.Event
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.EvRecoveryDetect:
			detect = append(detect, ev)
		case obs.EvRecoveryCancel:
			cancel = append(cancel, ev)
		case obs.EvRecoveryReplay:
			replay = append(replay, ev)
		}
	}
	if len(detect) != 1 || len(cancel) != 1 || len(replay) != 1 {
		t.Fatalf("recovery events: %d detect, %d cancel, %d replay, want 1 each",
			len(detect), len(cancel), len(replay))
	}
	if detect[0].Seq != cancel[0].Seq || cancel[0].Seq != replay[0].Seq {
		t.Fatal("recovery events disagree on seq")
	}
	if replay[0].Arg != int64(sim.Config().MispredictPenalty) {
		t.Errorf("replay penalty arg = %d, want %d", replay[0].Arg, sim.Config().MispredictPenalty)
	}

	var buf bytes.Buffer
	stats, err := obs.WriteChromeTrace(&buf, ring.Events(), obs.ChromeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(stats.RecoverySpans) != res.Recoveries {
		t.Errorf("chrome recovery spans = %d, Result.Recoveries = %d",
			stats.RecoverySpans, res.Recoveries)
	}
}

// TestNopTracerStripped: WithTracer(obs.Nop{}) must leave the Sim on
// the uninstrumented path — that is the basis of the <2% no-op
// overhead guarantee.
func TestNopTracerStripped(t *testing.T) {
	sim, err := New(Decoupled(3, 3), WithTracer(obs.Nop{}))
	if err != nil {
		t.Fatal(err)
	}
	if sim.tracer != nil {
		t.Fatal("obs.Nop not stripped at construction")
	}
	tr := tenInstTrace(t, TraceOptions{})
	plain, err := Simulate(tr, Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("Nop-traced result differs from plain result:\n%+v\n%+v", res, plain)
	}
}

// TestRunPublishesMetrics: publishing a run's Result must surface its
// counters and the per-cycle occupancy histograms in the registry.
func TestRunPublishesMetrics(t *testing.T) {
	tr := tenInstTrace(t, TraceOptions{})
	reg := obs.NewRegistry()
	res, err := Simulate(tr, Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	res.Publish(reg, obs.Labels{"suite": "test"})
	l := obs.Labels{"suite": "test", "workload": tr.Name, "config": "(3+3)"}
	if got := reg.Counter("sim_cycles_total", "", l).Value(); got != res.Cycles {
		t.Errorf("sim_cycles_total = %d, want %d", got, res.Cycles)
	}
	if got := reg.Hist("sim_lsq_occupancy", "", l).Count(); got != res.Cycles {
		t.Errorf("LSQ occupancy samples = %d, want one per cycle (%d)", got, res.Cycles)
	}
	if got := reg.Hist("sim_lvaq_occupancy", "", l).Count(); got != res.Cycles {
		t.Errorf("LVAQ occupancy samples = %d, want one per cycle (%d)", got, res.Cycles)
	}
}
