package cpu

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
		for seq := s.scan(b, s.headSeq); seq >= 0; seq = s.scan(b, seq+1) {
			due = append(due, seq)
		}
		for i := len(due) - 1; i >= 0; i-- {
			if err := s.fire(b, due[i]); err != nil {
				return nil, err
			}
		}
		s.memScan()
		if _, err := s.issue(); err != nil {
			return nil, err
		}
		s.dispatch()
	}
	return s.result()
}
