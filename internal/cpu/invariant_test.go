package cpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
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
	cases := []struct {
		name    string
		cfg     Config
		flat    bool // run the flat trace instead of the loop
		corrupt func(s *simulator)
		want    string
	}{
		{"store index head", Conventional(2, 2), false, func(s *simulator) {
			// A phantom store older than the trace: the first store to
			// commit no longer heads the LSQ store index.
			s.lsq.stores = append(s.lsq.stores, storeRec{seq: -1, word: ^uint32(0)})
		}, "LSQ store index head -1"},
		{"unknown address left behind", Decoupled(3, 3), false, func(s *simulator) {
			s.lvaq.unknown = append(s.lvaq.unknown, 1<<40)
		}, "1 unknown addresses in the LVAQ"},
		{"stray ready bit", Decoupled(3, 3), false, func(s *simulator) {
			s.ready[0] |= 1 << 5
		}, "ready bit for seq 5"},
		{"stray wheel bit", Decoupled(3, 3), false, func(s *simulator) {
			s.bucket(1)[0] |= 1 << 5
		}, "wheel bit for seq 5 at cycle 1"},
		{"lost event count", Decoupled(3, 3), false, func(s *simulator) {
			s.pending--
		}, "run ended with -1 events"},
		{"accesses and forwards", Decoupled(3, 3), false, func(s *simulator) {
			s.memOps++
		}, "forwards, but"},
		{"forwards from loads", Decoupled(3, 3), false, func(s *simulator) {
			s.memOps += 1 << 20
			s.res.Forwards += 1 << 20
		}, "forwards from"},
		{"fast forwards", Decoupled(3, 3), false, func(s *simulator) {
			s.res.FastForwards += 1 << 20
		}, "fast forwards out of"},
		{"recoveries", Decoupled(3, 3), false, func(s *simulator) {
			s.res.Recoveries++
		}, "recoveries for"},
		{"parked entry count", Decoupled(3, 3), false, func(s *simulator) {
			s.parked++
		}, "0 active and 1 parked memory entries"},
		{"queue park list left behind", Conventional(2, 2), false, func(s *simulator) {
			// A conventional machine never uses its LVAQ, so nothing
			// wakes the phantom load.
			s.lvaq.parked = append(s.lvaq.parked, 1<<40)
		}, "1 parked loads and 0 unknown addresses in the LVAQ"},
		{"store waiter list left behind", Decoupled(3, 3), true, func(s *simulator) {
			// The flat trace has no stores, so no data arrival drains
			// the list.
			s.rob[5].waiters = append(s.rob[5].waiters, 7)
		}, "1 loads parked on the store in ROB slot 5"},
		{"wake of an entry not parked", Conventional(2, 2), false, func(s *simulator) {
			// Seq 3 was never parked, but the first LSQ store address
			// to resolve wakes it from the queue's park list.
			s.lsq.parked = append(s.lsq.parked, 3)
		}, "wake of seq 3, which is not parked"},
		{"wedged", Conventional(2, 2), false, func(s *simulator) {
			// A phantom store older than the trace whose address never
			// resolves: every LSQ load parks forever.
			s.lsq.unknown = append(s.lsq.unknown, -1)
		}, "simulation wedged"},
		{"commit width", Decoupled(3, 3), true, func(s *simulator) {
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
			if tc.flat {
				tr = flat
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
