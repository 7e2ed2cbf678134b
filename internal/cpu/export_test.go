package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// RefRun simulates tr on cfg with the reference engine (refsim_test.go),
// drawing port denials and extra latencies from faults when it is not
// nil. Sim.Run must return the same Result.
func RefRun(tr *Trace, cfg Config, faults MemFaulter) (*Result, error) {
	return refRun(tr, cfg, faults)
}

// RunEventsReversed runs tr like Run, but delivers the events due in
// each cycle in reverse seq order. It is a test-only copy of simulate's
// cycle loop over the engine's own stage methods, so a test can show
// that the same-cycle order is not an input to the model.
func (sm *Sim) RunEventsReversed(tr *Trace) (*Result, error) {
	s, err := sm.newSimulator(tr)
	if err != nil {
		return nil, err
	}
	var due []int64
	for s.headSeq < int64(len(tr.Insts)) {
		s.now++
		if _, err := s.commit(); err != nil {
			return nil, err
		}
		b := s.bucket(s.now)
		due = due[:0]
		wi, base, below := s.walkStart()
		w := b[wi] &^ below
		for k := len(b); ; k-- {
			for ; w != 0; w &= w - 1 {
				due = append(due, base+int64(bits.TrailingZeros64(w)))
			}
			if k == 0 {
				break
			}
			if wi++; wi == len(b) {
				wi = 0
			}
			base += 64
			if w = b[wi]; k == 1 {
				w &= below
			}
		}
		for i := len(due) - 1; i >= 0; i-- {
			if err := s.fire(b, due[i]); err != nil {
				return nil, err
			}
		}
		if err := s.memScan(); err != nil {
			return nil, err
		}
		if _, err := s.issue(); err != nil {
			return nil, err
		}
		s.dispatch()
		s.countOccupancy()
	}
	return s.result()
}

// RecoveryWakes runs tr like Run and looks at every store recovery as
// it is detected, before the store moves. It counts the parked loads
// the recovery must release: loads parked on the moved store as their
// forwarding match, and loads in the destination queue, parked on
// another store or held only by a port, whose match the moved store
// becomes. When the recovery is replayed, no load may be left parked
// on a store and no verdict left cached.
func (sm *Sim) RecoveryWakes(tr *Trace) (onMoved, newMatch int, err error) {
	s, err := sm.newSimulator(tr)
	if err != nil {
		return 0, 0, err
	}
	w := &wakeWitness{s: s}
	s.trc = w
	if _, err := s.simulate(); err != nil {
		return 0, 0, err
	}
	return w.onMoved, w.newMatch, w.err
}

// wakeWitness is the tracer behind RecoveryWakes: it looks at the
// machine on each store's recovery-detect and recovery-replay events
// and keeps the first violation in err.
type wakeWitness struct {
	s                 *simulator
	onMoved, newMatch int
	err               error
}

func (w *wakeWitness) Emit(ev obs.Event) {
	if w.err != nil || !ev.Recovery() || w.s.inst(ev.Seq).IsLoad() {
		return
	}
	switch ev.Kind {
	case obs.EvRecoveryDetect:
		w.detect(ev.Seq)
	case obs.EvRecoveryReplay:
		w.err = w.replay(ev.Seq)
	}
}

func (w *wakeWitness) detect(seq int64) {
	s := w.s
	e, ti := s.slot(seq), s.inst(seq)
	w.onMoved += len(e.waiters)
	to := &s.lvaq
	if e.queue == qLVAQ {
		to = &s.lsq
	}
	word := ti.Addr >> 2
	gains := func(l int64) bool {
		if l < seq || s.inst(l).Addr>>2 != word {
			return false
		}
		match, blocked := to.olderStore(l, word)
		return !blocked && match < seq
	}
	for _, st := range to.stores {
		for _, l := range s.slot(st.seq).waiters {
			if gains(l) {
				w.newMatch++
			}
		}
	}
	for _, l := range s.memPending {
		if le := s.slot(l); le.mem == memCleared && s.queue(le.queue) == to && gains(l) {
			w.newMatch++
		}
	}
}

func (w *wakeWitness) replay(seq int64) error {
	s := w.s
	for _, q := range []*memQueue{&s.lsq, &s.lvaq} {
		for _, st := range q.stores {
			if n := len(s.slot(st.seq).waiters); n != 0 {
				return fmt.Errorf("store %d still has %d parked loads after recovery of store %d", st.seq, n, seq)
			}
		}
	}
	for _, l := range s.memPending {
		if s.slot(l).mem == memCleared {
			return fmt.Errorf("load %d kept its cached verdict across recovery of store %d", l, seq)
		}
	}
	return nil
}
