package cpu

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestEngineSelfChecks corrupts the pipeline bookkeeping before the
// cycle loop starts and expects the engine to stop with ErrInvariant
// instead of mis-modelling.
func TestEngineSelfChecks(t *testing.T) {
	tr := trace(t, loopSrc)
	// flat is 2048 independent integer operations.
	flat := &Trace{Name: "flat", Insts: make([]TraceInst, 2048)}
	for i := range flat.Insts {
		flat.Insts[i] = TraceInst{Class: isa.ClassIntALU, Src1: noReg, Src2: noReg, Dest: noReg}
	}
	// steered is the loop with its first load, which the loop's stack
	// predictions send to the LSQ, steered to the LVAQ: the run's one
	// steering misprediction.
	steered := &Trace{Name: "steered", Insts: slices.Clone(tr.Insts)}
	for i := range steered.Insts {
		if ti := &steered.Insts[i]; ti.IsLoad() {
			ti.Flags ^= FlagPredStack
			break
		}
	}
	cases := []struct {
		name    string
		cfg     Config
		tr      *Trace // the trace to run; nil runs the loop
		corrupt func(s *simulator)
		want    string
	}{
		{"store index head", Conventional(2, 2), nil, func(s *simulator) {
			// A phantom store older than the trace: the first store to
			// commit no longer heads the LSQ store index.
			s.lsq.stores = append(s.lsq.stores, storeRec{seq: -1, word: ^uint32(0)})
		}, "LSQ store index head -1"},
		{"unknown address left behind", Decoupled(3, 3), nil, func(s *simulator) {
			s.lvaq.unknown = append(s.lvaq.unknown, 1<<40)
		}, "1 unknown addresses in the LVAQ"},
		{"stray ready bit", Decoupled(3, 3), nil, func(s *simulator) {
			s.ready[0] |= 1 << 5
		}, "ready bit for seq 5"},
		{"stray wheel bit", Decoupled(3, 3), nil, func(s *simulator) {
			s.bucket(1)[0] |= 1 << 5
		}, "wheel bit for seq 5 at cycle 1"},
		{"lost event count", Decoupled(3, 3), nil, func(s *simulator) {
			s.pending--
		}, "run ended with -1 events"},
		{"accesses and forwards", Decoupled(3, 3), nil, func(s *simulator) {
			s.memOps++
		}, "forwards, but"},
		{"forwards from loads", Decoupled(3, 3), nil, func(s *simulator) {
			s.memOps += 1 << 20
			s.res.Forwards += 1 << 20
		}, "forwards from"},
		{"fast forwards", Decoupled(3, 3), nil, func(s *simulator) {
			s.res.FastForwards += 1 << 20
		}, "fast forwards out of"},
		{"recoveries", Decoupled(3, 3), nil, func(s *simulator) {
			s.res.Recoveries++
		}, "recoveries for"},
		{"parked entry count", Decoupled(3, 3), nil, func(s *simulator) {
			s.parked++
		}, "0 active and 1 parked memory entries"},
		{"queue park list left behind", Conventional(2, 2), nil, func(s *simulator) {
			// A conventional machine never uses its LVAQ, so nothing
			// wakes the phantom load.
			s.lvaq.parked = append(s.lvaq.parked, 1<<40)
		}, "1 parked loads and 0 unknown addresses in the LVAQ"},
		{"store waiter list left behind", Decoupled(3, 3), flat, func(s *simulator) {
			// The flat trace has no stores, so no data arrival drains
			// the list.
			s.rob[5].waiters = append(s.rob[5].waiters, 7)
		}, "1 loads parked on the store in ROB slot 5"},
		{"wake of an entry not parked", Conventional(2, 2), nil, func(s *simulator) {
			// Seq 3 was never parked, but the first LSQ store address
			// to resolve wakes it from the queue's park list.
			s.lsq.parked = append(s.lsq.parked, 3)
		}, "wake of seq 3, which is not parked"},
		{"wedged", Conventional(2, 2), nil, func(s *simulator) {
			// A phantom store older than the trace whose address never
			// resolves: every LSQ load parks forever.
			s.lsq.unknown = append(s.lsq.unknown, -1)
		}, "simulation wedged"},
		{"recovery outside the steered queue", Decoupled(3, 3), steered, func(s *simulator) {
			s.trc = &queueFlipper{s: s}
		}, "found it in the LSQ, but dispatch steered it to the LVAQ"},
		{"port grants", Conventional(2, 2), nil, func(s *simulator) {
			s.trc = &budgetBump{s: s}
		}, "partition 0 granted 3 ports of 2"},
		{"commit width", Decoupled(3, 3), flat, func(s *simulator) {
			// The engine runs far wider than the machine its Result
			// reports, so the flat trace commits too fast for it.
			s.cfg.IssueWidth, s.cfg.IntALU = 256, 256
		}, "insts in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := tr
			if tc.tr != nil {
				tr = tc.tr
			}
			s, err := sim.newSimulator(tr)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(s)
			_, err = s.simulate()
			if !errors.Is(err, ErrInvariant) {
				t.Fatalf("err = %v, want ErrInvariant", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// queueFlipper is a tracer that, when the first mispredicted load
// enters its queue at dispatch, relabels the entry as sitting in the
// other queue without moving it, so recovery finds it outside the
// queue dispatch steered it to.
type queueFlipper struct {
	s    *simulator
	done bool
}

func (f *queueFlipper) Emit(ev obs.Event) {
	if f.done || ev.Kind != obs.EvQueueEnter {
		return
	}
	if ti := f.s.inst(ev.Seq); ti.IsLoad() && ti.Mispredicted() {
		e := f.s.slot(ev.Seq)
		e.queue = qLSQ + qLVAQ - e.queue
		f.done = true
	}
}

// budgetBump is a tracer that gives partition 0 one more port each
// time it grants an access, in the middle of memScan's pass, so a
// cycle with more accesses waiting than the partition has ports grants
// them all.
type budgetBump struct{ s *simulator }

func (b *budgetBump) Emit(ev obs.Event) {
	if ev.Kind == obs.EvCacheAccess {
		b.s.budget[0]++
	}
}
