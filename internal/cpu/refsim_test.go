package cpu

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/isa"
)

// The reference engine: the straightforward heap-based timing model,
// kept as the executable specification of the engine in sim.go. It
// re-scans every waiting memory entry each cycle, walks the whole
// queue to disambiguate a load and keeps both schedules in
// container/heap, so it is slow and plainly right. Sim.Run must give
// the same Result on every trace, machine and fault plan
// (TestEngineMatchesReference, FuzzEngine). A change to the model
// changes both engines in the same commit; DESIGN.md §16 states the
// rule.

type refEntry struct {
	state     uint8
	queue     uint8
	mask      uint8 // outstanding source operands
	addrDone  bool
	earlyAddr bool  // LVAQ fast forwarding: address usable from dispatch
	readyAt   int64 // earliest cycle the cache access may start (recovery)
	consumers []int64
}

type refEvent struct {
	cycle int64
	seq   int64
	kind  uint8
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int           { return len(h) }
func (h refEventHeap) Less(i, j int) bool { return h[i].cycle < h[j].cycle }
func (h refEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type refSeqHeap []int64

func (h refSeqHeap) Len() int           { return len(h) }
func (h refSeqHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refSeqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refSeqHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *refSeqHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type refSim struct {
	cfg Config
	tr  *Trace
	res *Result

	rob     []refEntry
	headSeq int64 // oldest in-flight; seq is the trace index
	tailSeq int64 // next to allocate

	lastWriter [numDepRegs]int64

	ready  refSeqHeap
	events refEventHeap
	now    int64

	// Queue contents in program order; entries leave at commit.
	lsq, lvaq []int64

	// Memory entries past address generation, awaiting disambiguation
	// and a cache port; sorted by seq before each scan.
	memPending []int64

	hier   *cache.Hierarchy
	ports  []int
	plats  []int
	budget []int

	faults MemFaulter
	nGrant uint64
}

// refRun simulates tr on cfg with the reference engine.
func refRun(tr *Trace, cfg Config, faults MemFaulter) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Insts) == 0 {
		return nil, fmt.Errorf("cpu: empty trace %q", tr.Name)
	}
	parts, policy, err := cfg.ResolvePartitions()
	if err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cache.HierarchyConfig{Partitions: parts, Policy: policy})
	if err != nil {
		return nil, err
	}
	s := &refSim{
		cfg:    cfg,
		tr:     tr,
		res:    &Result{Config: cfg, Name: tr.Name},
		rob:    make([]refEntry, cfg.ROBSize),
		hier:   hier,
		ports:  make([]int, len(parts)),
		plats:  make([]int, len(parts)),
		budget: make([]int, len(parts)),
		faults: faults,
	}
	for i, p := range parts {
		s.ports[i] = p.Ports
		s.plats[i] = p.HitLatency
	}
	for i := range s.lastWriter {
		s.lastWriter[i] = -1
	}
	var occ [2][]uint64
	total := int64(len(tr.Insts))
	idle := 0
	for s.headSeq < total {
		s.now++
		c, err := s.commit()
		if err != nil {
			return nil, err
		}
		if err := s.processEvents(); err != nil {
			return nil, err
		}
		s.memScan()
		i := s.issue()
		d := s.dispatch()
		occ[0] = refCount(occ[0], len(s.lsq))
		if cfg.Decoupled() {
			occ[1] = refCount(occ[1], len(s.lvaq))
		}
		if c == 0 && i == 0 && d == 0 && len(s.events) == 0 {
			if idle++; idle > 10_000 {
				return nil, fmt.Errorf("cpu: reference simulation wedged at cycle %d", s.now)
			}
		} else {
			idle = 0
		}
	}
	r := s.res
	r.Cycles = uint64(s.now)
	r.Insts = uint64(total)
	r.PartStats = make([]cache.Stats, hier.NumPartitions())
	for i := range r.PartStats {
		r.PartStats[i] = hier.Partition(i).Stats()
	}
	r.L1Stats = r.PartStats[0]
	if len(r.PartStats) > 1 {
		r.LVCStats = r.PartStats[1]
	}
	r.L2Stats = hier.L2().Stats()
	r.Occupancy = occ
	return r, nil
}

// refCount counts one cycle that ended with n entries in a queue.
func refCount(counts []uint64, n int) []uint64 {
	for len(counts) <= n {
		counts = append(counts, 0)
	}
	counts[n]++
	return counts
}

func (s *refSim) slot(seq int64) *refEntry { return &s.rob[seq%int64(len(s.rob))] }

func (s *refSim) inst(seq int64) *TraceInst { return &s.tr.Insts[seq] }

// writerOutstanding reports whether the producer at seq has not yet
// delivered its value.
func (s *refSim) writerOutstanding(seq int64) bool {
	if seq < 0 || seq < s.headSeq {
		return false // retired: value architecturally available
	}
	return s.slot(seq).state != stDone
}

// commit retires up to the commit width of completed entries from the
// ROB head.
func (s *refSim) commit() (int, error) {
	n := 0
	for n < s.cfg.IssueWidth && s.headSeq < s.tailSeq {
		e := s.slot(s.headSeq)
		if e.state != stDone {
			break
		}
		var err error
		switch e.queue {
		case qLSQ:
			s.lsq, err = refPopHead(s.lsq, s.headSeq)
		case qLVAQ:
			s.lvaq, err = refPopHead(s.lvaq, s.headSeq)
		}
		if err != nil {
			return n, err
		}
		s.headSeq++
		n++
	}
	return n, nil
}

// refPopHead removes seq from the front of a program-ordered queue.
func refPopHead(q []int64, seq int64) ([]int64, error) {
	if len(q) == 0 || q[0] != seq {
		return q, fmt.Errorf("%w: reference memory queue head is not retiring seq %d", ErrInvariant, seq)
	}
	copy(q, q[1:])
	return q[:len(q)-1], nil
}

func (s *refSim) processEvents() error {
	for len(s.events) > 0 && s.events[0].cycle <= s.now {
		ev := heap.Pop(&s.events).(refEvent)
		if ev.kind == evComplete {
			s.finish(ev.seq)
			continue
		}
		e := s.slot(ev.seq)
		e.addrDone = true
		// The steering prediction is verified at address generation; a
		// mismatch starts recovery and the access is re-steered.
		if ti := s.inst(ev.seq); s.cfg.Decoupled() && ti.Mispredicted() {
			if err := s.recoverSteering(ev.seq, e, ti); err != nil {
				return err
			}
		}
		s.memPending = append(s.memPending, ev.seq)
	}
	return nil
}

// recoverSteering cancels a wrong-queue dispatch from the mispredicted
// queue and replays it into the correct one with the configured
// penalty before it may touch a cache port.
func (s *refSim) recoverSteering(seq int64, e *refEntry, ti *TraceInst) error {
	s.res.ARPTMispredicts++
	from, to := &s.lsq, &s.lvaq
	toQ := uint8(qLVAQ)
	if e.queue == qLVAQ {
		from, to = &s.lvaq, &s.lsq
		toQ = qLSQ
	}
	i := sort.Search(len(*from), func(i int) bool { return (*from)[i] >= seq })
	if i == len(*from) || (*from)[i] != seq {
		return fmt.Errorf("%w: reference recovery found seq %d absent from its queue", ErrInvariant, seq)
	}
	*from = append((*from)[:i], (*from)[i+1:]...)
	j := sort.Search(len(*to), func(j int) bool { return (*to)[j] >= seq })
	*to = append(*to, 0)
	copy((*to)[j+1:], (*to)[j:])
	(*to)[j] = seq
	e.queue = toQ
	e.earlyAddr = !ti.IsLoad() && (ti.Flags&FlagEarlyAddr != 0 || (toQ == qLVAQ && s.cfg.FastForward))
	e.readyAt = s.now + int64(s.cfg.MispredictPenalty)
	s.res.Recoveries++
	return nil
}

// finish marks an entry done and wakes its consumers.
func (s *refSim) finish(seq int64) {
	e := s.slot(seq)
	e.state = stDone
	for _, c := range e.consumers {
		cseq, bit := c>>1, uint8(depA)
		if c&1 != 0 {
			bit = depB
		}
		if cseq < s.headSeq {
			continue
		}
		ce := s.slot(cseq)
		ce.mask &^= bit
		s.maybeWake(cseq, ce)
	}
	e.consumers = e.consumers[:0]
}

// maybeWake moves a waiting entry to the ready queue once its issue
// condition holds: all operands for ALU operations, the address base
// for memory operations.
func (s *refSim) maybeWake(seq int64, e *refEntry) {
	if e.state != stWaiting {
		return
	}
	ok := e.mask == 0
	if s.inst(seq).IsMem() {
		ok = e.mask&depA == 0
	}
	if ok {
		e.state = stReady
		heap.Push(&s.ready, seq)
	}
}

// memScan walks the pending memory operations oldest first, resolving
// store-to-load forwarding and granting cache ports.
func (s *refSim) memScan() {
	if len(s.memPending) == 0 {
		return
	}
	sort.Slice(s.memPending, func(i, j int) bool { return s.memPending[i] < s.memPending[j] })
	copy(s.budget, s.ports)
	keep := s.memPending[:0]
	for _, seq := range s.memPending {
		e := s.slot(seq)
		ti := s.inst(seq)
		if e.readyAt > s.now {
			keep = append(keep, seq)
			continue
		}
		if !ti.IsLoad() && e.mask&depB != 0 {
			keep = append(keep, seq) // store data not produced yet
			continue
		}
		pi := s.hier.Steer(ti.AccessInfo())
		if ti.IsLoad() {
			switch s.resolveLoad(seq, e, ti) {
			case loadBlocked:
				keep = append(keep, seq)
				continue
			case loadForwarded:
				s.schedule(evComplete, seq, s.now+1)
				continue
			}
		}
		if s.budget[pi] == 0 {
			keep = append(keep, seq)
			continue
		}
		grant := s.nGrant
		s.nGrant++
		if s.faults != nil && s.faults.PortDenied(grant, pi != 0) {
			keep = append(keep, seq)
			continue
		}
		s.budget[pi]--
		lat := s.plats[pi]
		switch s.hier.Access(pi, ti.Addr, !ti.IsLoad()) {
		case cache.LevelL2:
			lat += LatL2
		case cache.LevelMem:
			lat += LatL2 + LatMem
		}
		if !ti.IsLoad() {
			// Stores complete into the write buffer once they own a port.
			s.finish(seq)
			continue
		}
		if s.faults != nil {
			lat += s.faults.ExtraLatency(grant)
		}
		s.schedule(evComplete, seq, s.now+int64(lat))
	}
	s.memPending = keep
}

// resolveLoad applies §4.3 by walking the load's queue: blocked while
// any older store's address is unknown, forwarded from the youngest
// older same-word store whose data is ready, blocked on one whose data
// is not.
func (s *refSim) resolveLoad(seq int64, e *refEntry, ti *TraceInst) int {
	q := s.lsq
	if e.queue == qLVAQ {
		q = s.lvaq
	}
	word := ti.Addr >> 2
	match := int64(-1)
	for _, os := range q {
		if os >= seq {
			break
		}
		oi := s.inst(os)
		if oi.IsLoad() {
			continue
		}
		if oe := s.slot(os); !oe.addrDone && !oe.earlyAddr {
			return loadBlocked
		}
		if oi.Addr>>2 == word {
			match = os
		}
	}
	if match < 0 {
		return loadProceed
	}
	if s.slot(match).mask&depB != 0 {
		return loadBlocked // store data not produced yet
	}
	s.res.Forwards++
	if e.queue == qLVAQ && s.cfg.FastForward {
		s.res.FastForwards++
	}
	return loadForwarded
}

// issue moves ready entries to the function units, oldest first,
// bounded by the issue width and per-class FU counts.
func (s *refSim) issue() int {
	budget := s.cfg.IssueWidth
	intALU, fpALU := s.cfg.IntALU, s.cfg.FPALU
	intMD, fpMD := s.cfg.IntMulDiv, s.cfg.FPMulDiv
	take := func(n *int) bool {
		if *n > 0 {
			*n--
			return true
		}
		return false
	}
	var deferred []int64
	issued := 0
	for budget > 0 && len(s.ready) > 0 {
		seq := heap.Pop(&s.ready).(int64)
		e := s.slot(seq)
		if seq < s.headSeq || e.state != stReady {
			continue
		}
		ti := s.inst(seq)
		var ok bool
		var lat int
		switch ti.Class {
		case isa.ClassIntMul:
			ok, lat = take(&intMD), LatIntMul
		case isa.ClassIntDiv:
			ok, lat = take(&intMD), LatIntDiv
		case isa.ClassFPALU:
			ok, lat = take(&fpALU), LatFPALU
		case isa.ClassFPMul:
			ok, lat = take(&fpMD), LatFPMul
		case isa.ClassFPDiv:
			ok, lat = take(&fpMD), LatFPDiv
		default:
			// Integer ALU, branches, jumps, syscalls and memory AGU
			// share the integer ALU pool.
			ok, lat = take(&intALU), LatIntALU
		}
		if !ok {
			deferred = append(deferred, seq)
			continue
		}
		budget--
		issued++
		e.state = stIssued
		if ti.IsMem() {
			s.schedule(evAddrDone, seq, s.now+1)
			continue
		}
		s.schedule(evComplete, seq, s.now+int64(lat))
	}
	for _, seq := range deferred {
		heap.Push(&s.ready, seq)
	}
	return issued
}

func (s *refSim) schedule(kind uint8, seq, cycle int64) {
	heap.Push(&s.events, refEvent{cycle: cycle, seq: seq, kind: kind})
}

// dispatch brings new trace instructions into the ROB (and LSQ/LVAQ),
// in order, bounded by the decode width and structural space.
func (s *refSim) dispatch() int {
	n := 0
	for n < s.cfg.IssueWidth && s.tailSeq < int64(len(s.tr.Insts)) {
		if s.tailSeq-s.headSeq >= int64(s.cfg.ROBSize) {
			s.res.StallROB++
			break
		}
		ti := s.inst(s.tailSeq)
		queue := uint8(qNone)
		if ti.IsMem() {
			queue = qLSQ
			if s.cfg.Decoupled() && ti.PredStack() {
				queue = qLVAQ
			}
			if (queue == qLSQ && len(s.lsq) >= s.cfg.LSQSize) ||
				(queue == qLVAQ && len(s.lvaq) >= s.cfg.LVAQSize) {
				s.res.StallQueue++
				break
			}
		}
		seq := s.tailSeq
		s.tailSeq++
		n++
		e := s.slot(seq)
		*e = refEntry{queue: queue, consumers: e.consumers[:0]}
		for bit, src := range []int8{ti.Src1, ti.Src2} {
			if src == noReg {
				continue
			}
			if w := s.lastWriter[src]; s.writerOutstanding(w) {
				e.mask |= depA << bit
				we := s.slot(w)
				we.consumers = append(we.consumers, seq<<1|int64(bit))
			}
		}
		if ti.Dest != noReg {
			if ti.Flags&FlagVPHit != 0 {
				// The value predictor supplies the result at dispatch.
				s.lastWriter[ti.Dest] = -1
				s.res.VPUsed++
			} else {
				s.lastWriter[ti.Dest] = seq
			}
		}
		switch queue {
		case qLSQ:
			s.lsq = append(s.lsq, seq)
		case qLVAQ:
			s.lvaq = append(s.lvaq, seq)
		}
		if queue != qNone && !ti.IsLoad() {
			e.earlyAddr = ti.Flags&FlagEarlyAddr != 0 || (queue == qLVAQ && s.cfg.FastForward)
		}
		s.maybeWake(seq, e)
	}
	return n
}
