package cpu

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/obs"
)

// ErrInvariant marks a violated internal pipeline invariant: the
// simulation's bookkeeping contradicted itself (e.g. a memory queue
// head out of program order). It is returned, wrapped, by Simulate —
// never panicked — so an embedding process survives a corrupted run.
var ErrInvariant = errors.New("cpu: pipeline invariant violated")

// MemFaulter perturbs the timing model's memory pipeline. It is the
// simulation-level fault-injection hook: implementations must be
// deterministic functions of their arguments and internal seeded
// state, never of wall-clock or map order. Faults injected here may
// change cycle counts only; the committed instruction stream is fixed
// by the trace, which the differential harness verifies.
type MemFaulter interface {
	// PortDenied reports whether the n-th cache-port grant of the run
	// should be denied; a denied access retries on a later cycle.
	// lvc distinguishes the LVC port pool from the L1 pool.
	PortDenied(n uint64, lvc bool) bool
	// ExtraLatency reports extra cycles to add to the n-th granted
	// load access (0 for none).
	ExtraLatency(n uint64) int
}

// Result is the outcome of one timing simulation.
type Result struct {
	Config Config
	Name   string // trace name

	Cycles uint64
	Insts  uint64

	// PartStats holds per-partition first-level statistics in partition
	// order. L1Stats and LVCStats mirror partitions 0 and 1 for the
	// paper's two-partition reports (LVCStats stays zero with a single
	// partition).
	PartStats []cache.Stats
	L1Stats   cache.Stats
	LVCStats  cache.Stats
	L2Stats   cache.Stats

	ARPTMispredicts uint64
	Recoveries      uint64 // completed detect→cancel→replay sequences
	Forwards        uint64 // store-to-load forwards (both queues)
	FastForwards    uint64 // LVAQ offset-based forwards
	VPUsed          uint64 // results supplied by the value predictor
	StallROB        uint64 // dispatch cycles lost to a full ROB
	StallQueue      uint64 // dispatch cycles lost to a full LSQ/LVAQ

	// Occupancy holds the per-cycle occupancy histograms of the LSQ
	// ([0]) and, on a decoupled machine, the LVAQ ([1]; nil otherwise):
	// Occupancy[q][n] is the number of cycles that ended with n entries
	// in the queue, up to the largest occupancy seen. Each histogram
	// sums to Cycles. It stays out of the JSON form, which the result
	// goldens and the service wire pin.
	Occupancy [2][]uint64 `json:"-"`
}

// IPC reports committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Speedup reports this result's performance relative to a baseline.
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Entry states.
const (
	stWaiting = iota // operands outstanding
	stReady          // in the ready queue
	stIssued         // executing / in the memory pipeline
	stDone           // result available, retirable
)

const (
	qNone = iota
	qLSQ
	qLVAQ
)

// Dependence mask bits: bit 0 is the first source (the address base for
// memory operations), bit 1 the second (the store data).
const (
	depA = 1 << 0
	depB = 1 << 1
)

// robEntry is the in-flight state of one instruction. An entry's seq
// is its trace index, so the instruction itself is insts[seq].
type robEntry struct {
	state     uint8
	queue     uint8
	mask      uint8 // outstanding source operands
	earlyAddr bool  // LVAQ fast forwarding: address usable from dispatch
	part      uint8 // cache partition the access steers to, set at address generation
	evKind    uint8 // the entry's one outstanding event, or evNone
	mem       uint8 // memory-pipeline state past address generation
	// replayed marks an entry that steering recovery moved at its
	// address generation. Its cache access may not start before
	// evDue+MispredictPenalty: evDue keeps the address-generation
	// cycle for as long as the entry waits for a port. A flag rather
	// than a cycle keeps the entry at 64 bytes, one cache line.
	replayed  bool
	evDue     int64 // cycle the outstanding event is due
	consumers []int64
	// waiters are the loads parked on this store as their forwarding
	// match until its data arrives. The list is empty whenever the slot
	// is free, since a store's data arrives before it can retire.
	waiters []int64
}

// Memory-pipeline states. An active entry is on memPending and memScan
// looks at it each cycle; a parked one is on no per-cycle list and
// waits for the one event that can change its verdict (DESIGN.md §16).
const (
	memActive  = iota // on memPending, verdict not known
	memCleared        // on memPending: a load with no older unknown-address or same-word store, held only by a port
	parkData          // a store waiting for its data; woken by its producer's finish
	parkQueue         // a load behind an older unknown-address store; woken by resolveAddr in its queue
	parkStore         // a load whose match's data is not ready; on the match's waiters
)

// Event kinds. An in-flight entry has at most one outstanding event:
// issue schedules evAddrDone or evComplete, and a memory entry's
// evComplete follows its evAddrDone from memScan.
const (
	evNone = iota
	evComplete
	evAddrDone
)

// memQueue is one memory queue, the LSQ or the LVAQ, plus the store
// index that load disambiguation reads instead of scanning the queue.
// All four lists are in program order; the first three lose their head
// at commit.
type memQueue struct {
	name    string
	seqs    []int64    // every entry, loads and stores
	stores  []storeRec // the stores, with their word addresses
	unknown []int64    // stores whose address is not yet known
	parked  []int64    // loads parked behind an older unknown-address store

	// The arrays seqs and stores return to when their window reaches
	// the end of its array (pushWindow).
	seqArr   []int64
	storeArr []storeRec
}

// storeRec is one store of a queue's store index.
type storeRec struct {
	seq  int64
	word uint32
}

// add enters a newly dispatched entry at the tail.
func (q *memQueue) add(seq int64, ti *TraceInst, addrKnown bool) {
	q.seqs = pushWindow(q.seqs, &q.seqArr, seq)
	if ti.IsLoad() {
		return
	}
	q.stores = pushWindow(q.stores, &q.storeArr, storeRec{seq: seq, word: ti.Addr >> 2})
	if !addrKnown {
		q.unknown = append(q.unknown, seq)
	}
}

// pushWindow appends v to the window q of a queue that loses its head
// by reslicing (retire), so the window creeps along its array. When it
// reaches the end, it moves back to the start of arr instead of letting
// append allocate a new array; arr grows only when the window holds
// more than half of it.
func pushWindow[T any](q []T, arr *[]T, v T) []T {
	if len(q) == cap(q) {
		if 2*len(q) > cap(*arr) {
			*arr = make([]T, 0, 2*len(q)+16)
		}
		q = append((*arr)[:0], q...)
	}
	return append(q, v)
}

// retire removes the committing entry seq, which must head the queue
// and, for a store, the store index. A mismatch means the queue
// bookkeeping is corrupt; the wrapped ErrInvariant surfaces through
// Simulate's error return.
func (q *memQueue) retire(seq int64, store bool) error {
	if len(q.seqs) == 0 || q.seqs[0] != seq {
		head := int64(-1)
		if len(q.seqs) > 0 {
			head = q.seqs[0]
		}
		return fmt.Errorf("%w: %s head %d, expected retiring seq %d",
			ErrInvariant, q.name, head, seq)
	}
	q.seqs = q.seqs[1:]
	if !store {
		return nil
	}
	if len(q.stores) == 0 || q.stores[0].seq != seq {
		head := int64(-1)
		if len(q.stores) > 0 {
			head = q.stores[0].seq
		}
		return fmt.Errorf("%w: %s store index head %d, expected retiring store %d",
			ErrInvariant, q.name, head, seq)
	}
	q.stores = q.stores[1:]
	return nil
}

// resolveAddr takes a store off the unknown-address list once its
// address generation completes.
func (q *memQueue) resolveAddr(seq int64) error {
	var ok bool
	if q.unknown, ok = removeSeq(q.unknown, seq); !ok {
		return fmt.Errorf("%w: store %d resolved its address but is not on the %s unknown list",
			ErrInvariant, seq, q.name)
	}
	return nil
}

// moveTo transfers entry seq to queue to during steering recovery,
// keeping both queues and both store indexes in program order.
func (q *memQueue) moveTo(to *memQueue, seq int64, store bool) error {
	var ok bool
	if q.seqs, ok = removeSeq(q.seqs, seq); !ok {
		return fmt.Errorf("%w: seq %d absent from its steering queue during recovery",
			ErrInvariant, seq)
	}
	to.seqs = insertSeq(to.seqs, seq)
	if !store {
		return nil
	}
	i := q.storeAt(seq)
	if i == len(q.stores) || q.stores[i].seq != seq {
		return fmt.Errorf("%w: store %d absent from the %s store index during recovery",
			ErrInvariant, seq, q.name)
	}
	rec := q.stores[i]
	q.stores = slices.Delete(q.stores, i, i+1)
	to.stores = slices.Insert(to.stores, to.storeAt(seq), rec)
	return nil
}

// storeAt returns the index of the first store in the index whose seq
// is seq or younger.
func (q *memQueue) storeAt(seq int64) int {
	lo, hi := 0, len(q.stores)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.stores[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// olderStore applies §4.3 to a load at seq reading word: blocked when
// any older store's address is unknown; otherwise the youngest older
// store to the same word, or -1 when there is none.
func (q *memQueue) olderStore(seq int64, word uint32) (match int64, blocked bool) {
	if len(q.unknown) > 0 && q.unknown[0] < seq {
		return -1, true
	}
	for i := q.storeAt(seq) - 1; i >= 0; i-- {
		if q.stores[i].word == word {
			return q.stores[i].seq, false
		}
	}
	return -1, false
}

type simulator struct {
	cfg       Config
	decoupled bool // cfg.Decoupled(), kept so the cycle loop never copies cfg
	tr        *Trace
	insts     []TraceInst // tr.Insts
	res       *Result

	rob     []robEntry // ring of a power-of-two size >= ROBSize
	robMask int64
	headSeq int64 // oldest in-flight
	tailSeq int64 // next to allocate, and so the next trace index to dispatch

	lastWriter [numDepRegs]int64

	// ready and the wheel's buckets are bitmaps over ROB slots, so a
	// walk from headSeq's slot visits entries oldest first. ready marks
	// the entries in stReady; wheel holds one bitmap per cycle modulo
	// its bucket count, marking the entries with an event due then.
	ready     []uint64
	wheel     []uint64
	wheelMask int64 // bucket count - 1
	pending   int   // outstanding events
	now       int64

	lsq, lvaq memQueue

	// Active memory entries past address generation, awaiting
	// disambiguation and a cache port, in program order; memNext is
	// the list memScan builds for the next cycle. parked counts the
	// memory entries that wait off both lists.
	memPending, memNext []int64
	parked              int

	// First-level partitions plus shared L2, with the per-partition
	// timing parameters the hierarchy leaves to the pipeline model.
	hier   *cache.Hierarchy
	ports  []int // static per-partition port counts
	plats  []int // per-partition hit latencies
	budget []int // ports left this cycle, refilled by memScan
	grants []int // ports granted this cycle, zero between cycles

	ctx    context.Context
	faults MemFaulter
	nGrant uint64 // cache-port grant ordinal (MemFaulter hook index)

	// Memory operations and loads dispatched, for the end-of-run
	// conservation laws.
	memOps, loads uint64

	// trc is nil for uninstrumented runs: every emission site is behind
	// a nil check, so the no-op path does no interface calls.
	trc obs.Tracer
}

// countOccupancy counts the cycle that just ended into the Result's
// occupancy histograms. Every cycle loop calls it once per cycle, after
// dispatch.
func (s *simulator) countOccupancy() {
	occ := &s.res.Occupancy
	occ[0] = countCycle(occ[0], len(s.lsq.seqs))
	if occ[1] != nil {
		occ[1] = countCycle(occ[1], len(s.lvaq.seqs))
	}
}

// countCycle counts one cycle with n entries into counts. Dispatch
// fills a queue only to its size, but steering recovery moves entries
// in regardless, so the counts grow on demand.
func countCycle(counts []uint64, n int) []uint64 {
	if n >= len(counts) {
		counts = append(counts, make([]uint64, n+1-len(counts))...)
	}
	counts[n]++
	return counts
}

func (s *simulator) emit(seq int64, kind obs.EventKind, arg int64) {
	s.trc.Emit(obs.Event{Cycle: s.now, Seq: seq, Kind: kind, Arg: arg})
}

func (s *simulator) slot(seq int64) *robEntry { return &s.rob[seq&s.robMask] }

func (s *simulator) inst(seq int64) *TraceInst { return &s.insts[seq] }

// Simulate runs trace tr on configuration cfg with no instrumentation
// attached. All mutable machine state (ROB, queues, caches, statistics)
// lives in the per-call simulator; tr is never written, so concurrent
// Simulate calls may share one trace.
func Simulate(tr *Trace, cfg Config) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(tr)
}

// newSimulator builds the per-run machine state for trace tr.
func (sm *Sim) newSimulator(tr *Trace) (*simulator, error) {
	cfg := sm.cfg
	if len(tr.Insts) == 0 {
		return nil, fmt.Errorf("cpu: empty trace %q", tr.Name)
	}
	parts, policy, err := cfg.ResolvePartitions()
	if err != nil {
		return nil, fmt.Errorf("cpu config %q: %w", cfg.Name, err)
	}
	hier, err := cache.NewHierarchy(cache.HierarchyConfig{Partitions: parts, Policy: policy})
	if err != nil {
		return nil, fmt.Errorf("cpu config %q: %w", cfg.Name, err)
	}
	// The ROB ring is at least one bitmap word, so every word of a
	// bitmap covers 64 consecutive slots.
	robLen := max(64, 1<<bits.Len(uint(cfg.ROBSize-1)))
	s := &simulator{
		cfg:       cfg,
		decoupled: cfg.Decoupled(),
		tr:        tr,
		insts:     tr.Insts,
		res:       &Result{Config: cfg, Name: tr.Name},
		rob:       make([]robEntry, robLen),
		ready:     make([]uint64, robLen/64),
		lsq:       memQueue{name: "LSQ"},
		lvaq:      memQueue{name: "LVAQ"},
		hier:      hier,
		ports:     make([]int, len(parts)),
		plats:     make([]int, len(parts)),
		budget:    make([]int, len(parts)),
		grants:    make([]int, len(parts)),
		ctx:       sm.ctx,
		faults:    sm.faults,
		trc:       sm.tracer,
	}
	s.robMask = int64(len(s.rob) - 1)
	// The wheel has more buckets than the longest latency the machine
	// produces, so only an injected extra latency laps it.
	horizon := LatIntDiv
	for i, p := range parts {
		s.ports[i] = p.Ports
		s.plats[i] = p.HitLatency
		horizon = max(horizon, p.HitLatency+LatL2+LatMem)
	}
	buckets := 1 << bits.Len(uint(horizon))
	s.wheelMask = int64(buckets - 1)
	s.wheel = make([]uint64, buckets*len(s.ready))
	s.res.Occupancy[0] = make([]uint64, cfg.LSQSize+1)
	if cfg.Decoupled() {
		s.res.Occupancy[1] = make([]uint64, cfg.LVAQSize+1)
	}
	for i := range s.lastWriter {
		s.lastWriter[i] = -1
	}
	return s, nil
}

// simulate runs the cycle loop to the last commit.
func (s *simulator) simulate() (*Result, error) {
	tr := s.tr
	total := int64(len(tr.Insts))
	idle := 0
	for s.headSeq < total {
		s.now++
		if s.ctx != nil && s.now&0x3FFF == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("cpu: simulate %s: %w", tr.Name, err)
			}
		}
		c, err := s.commit()
		if err != nil {
			return nil, err
		}
		if err := s.processEvents(); err != nil {
			return nil, err
		}
		if err := s.memScan(); err != nil {
			return nil, err
		}
		i, err := s.issue()
		if err != nil {
			return nil, err
		}
		d := s.dispatch()
		s.countOccupancy()
		if c == 0 && i == 0 && d == 0 && s.pending == 0 {
			idle++
			if idle > 10_000 {
				// No event is left to wake anything, so the bookkeeping
				// holds an entry that nothing can release.
				return nil, fmt.Errorf("%w: simulation wedged at cycle %d (retired %d/%d, %d events, %d active and %d parked memory entries)",
					ErrInvariant, s.now, s.headSeq, total, s.pending, len(s.memPending), s.parked)
			}
		} else {
			idle = 0
		}
	}
	return s.result()
}

// result completes the Result of a finished run and checks it with
// drained and the occupancy law: every cycle was counted exactly once
// into each histogram, which result trims to its largest occupancy.
func (s *simulator) result() (*Result, error) {
	s.res.Cycles = uint64(s.now)
	s.res.Insts = uint64(s.headSeq)
	s.res.PartStats = make([]cache.Stats, s.hier.NumPartitions())
	for i := range s.res.PartStats {
		s.res.PartStats[i] = s.hier.Partition(i).Stats()
	}
	s.res.L1Stats = s.res.PartStats[0]
	if len(s.res.PartStats) > 1 {
		s.res.LVCStats = s.res.PartStats[1]
	}
	s.res.L2Stats = s.hier.L2().Stats()
	if err := s.drained(); err != nil {
		return nil, err
	}
	for q, mq := range []*memQueue{&s.lsq, &s.lvaq} {
		counts := s.res.Occupancy[q]
		if counts == nil {
			continue
		}
		var sum uint64
		last := 0
		for n, c := range counts {
			sum += c
			if c != 0 {
				last = n
			}
		}
		if sum != s.res.Cycles {
			return nil, fmt.Errorf("%w: %s occupancy counts %d cycles of %d",
				ErrInvariant, mq.name, sum, s.res.Cycles)
		}
		s.res.Occupancy[q] = counts[:last+1]
	}
	return s.res, nil
}

// commit retires up to the commit width of completed entries from the
// ROB head.
func (s *simulator) commit() (int, error) {
	n := 0
	for n < s.cfg.IssueWidth && s.headSeq < s.tailSeq {
		e := s.slot(s.headSeq)
		if e.state != stDone {
			break
		}
		if e.queue != qNone {
			if err := s.queue(e.queue).retire(s.headSeq, !s.inst(s.headSeq).IsLoad()); err != nil {
				return n, err
			}
		}
		if s.trc != nil {
			s.emit(s.headSeq, obs.EvCommit, 0)
		}
		s.headSeq++
		n++
	}
	return n, nil
}

func (s *simulator) queue(q uint8) *memQueue {
	if q == qLVAQ {
		return &s.lvaq
	}
	return &s.lsq
}

// drained checks that a finished run left nothing behind: every event
// delivered, no memory entry active or parked, both bitmaps clear, both
// memory queues, store indexes, unknown-address and park lists empty,
// and no load parked on a store. It then checks the Result's
// conservation laws.
func (s *simulator) drained() error {
	if s.pending+len(s.memPending)+s.parked != 0 || !empty(s.ready) || !empty(s.wheel) {
		return fmt.Errorf("%w: run ended with %d events, %d active and %d parked memory entries, ready bits %t and wheel bits %t",
			ErrInvariant, s.pending, len(s.memPending), s.parked, !empty(s.ready), !empty(s.wheel))
	}
	for _, q := range []*memQueue{&s.lsq, &s.lvaq} {
		if len(q.seqs)+len(q.stores)+len(q.parked)+len(q.unknown) != 0 {
			return fmt.Errorf("%w: run ended with %d entries, %d indexed stores, %d parked loads and %d unknown addresses in the %s",
				ErrInvariant, len(q.seqs), len(q.stores), len(q.parked), len(q.unknown), q.name)
		}
	}
	for i := range s.rob {
		if n := len(s.rob[i].waiters); n != 0 {
			return fmt.Errorf("%w: run ended with %d loads parked on the store in ROB slot %d",
				ErrInvariant, n, i)
		}
	}
	r := s.res
	var accesses uint64
	for _, st := range r.PartStats {
		accesses += st.Accesses
	}
	switch {
	case accesses+r.Forwards != s.memOps:
		return fmt.Errorf("%w: %d partition accesses + %d forwards, but %d memory ops dispatched",
			ErrInvariant, accesses, r.Forwards, s.memOps)
	case r.Forwards > s.loads:
		return fmt.Errorf("%w: %d forwards from %d loads", ErrInvariant, r.Forwards, s.loads)
	case r.FastForwards > r.Forwards:
		return fmt.Errorf("%w: %d fast forwards out of %d forwards", ErrInvariant, r.FastForwards, r.Forwards)
	case r.Recoveries != r.ARPTMispredicts:
		return fmt.Errorf("%w: %d recoveries for %d mispredicts", ErrInvariant, r.Recoveries, r.ARPTMispredicts)
	case r.Cycles*uint64(r.Config.IssueWidth) < r.Insts:
		// Checked against the width the Result reports, not the one
		// the engine ran at.
		return fmt.Errorf("%w: %d insts in %d cycles at width %d",
			ErrInvariant, r.Insts, r.Cycles, r.Config.IssueWidth)
	}
	return nil
}

// empty reports whether bitmap b has no bit set.
func empty(b []uint64) bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// walkStart begins a word walk of a slot bitmap in seq order: from
// headSeq's slot around the ring and back to just below it. It returns
// the index of headSeq's word, the seq of that word's bit 0 and the
// mask of its bits below headSeq's slot. The walk takes the word at
// index wi without those bits first, then the following words around
// the ring with the seq of bit 0 rising by 64 each, and ends with the
// masked bits of the first word again, which hold the youngest seqs of
// the ring.
func (s *simulator) walkStart() (wi int, base int64, below uint64) {
	head := s.headSeq & s.robMask
	return int(head >> 6), s.headSeq - head&63, 1<<(head&63) - 1
}

// bucket returns the wheel bitmap for cycle.
func (s *simulator) bucket(cycle int64) []uint64 {
	n := len(s.ready)
	i := int(cycle&s.wheelMask) * n
	return s.wheel[i : i+n]
}

// processEvents delivers this cycle's events in seq order. It walks
// the bucket a word at a time (walkStart), holding the current word in
// a local and clearing each bit there as it fires. The local copy is
// safe because nothing sets a bit in this bucket during the walk: fire
// never schedules.
func (s *simulator) processEvents() error {
	b := s.bucket(s.now)
	wi, base, below := s.walkStart()
	w := b[wi] &^ below
	for k := len(b); ; k-- {
		for ; w != 0; w &= w - 1 {
			if err := s.fire(b, base+int64(bits.TrailingZeros64(w))); err != nil {
				return err
			}
		}
		if k == 0 {
			return nil
		}
		if wi++; wi == len(b) {
			wi = 0
		}
		base += 64
		if w = b[wi]; k == 1 {
			w &= below
		}
	}
}

// fire delivers the event of entry seq, whose bit is set in bucket b,
// if it is due this cycle; an event due on a later lap of the wheel
// keeps its bit. A bit with no event due in this bucket is corrupt
// bookkeeping.
func (s *simulator) fire(b []uint64, seq int64) error {
	e := s.slot(seq)
	if e.evDue != s.now {
		if seq >= s.tailSeq || e.evKind == evNone || e.evDue < s.now || (e.evDue-s.now)&s.wheelMask != 0 {
			return s.strayWheelBit(seq)
		}
		return nil // due on a later lap
	}
	i := seq & s.robMask
	b[i>>6] &^= 1 << (i & 63)
	s.pending--
	kind := e.evKind
	e.evKind = evNone
	switch kind {
	case evComplete:
		return s.finish(seq)
	case evNone:
		// An entry whose event has fired keeps its evDue, so a stray
		// bit can meet evDue == now; a slot not yet dispatched to has
		// no event either.
		return s.strayWheelBit(seq)
	}
	ti := s.inst(seq)
	e.part = uint8(s.hier.Steer(ti.AccessInfo()))
	if !ti.IsLoad() && !e.earlyAddr {
		if err := s.resolveAddr(s.queue(e.queue), seq); err != nil {
			return err
		}
	}
	if s.trc != nil {
		s.emit(seq, obs.EvAddrReady, 0)
	}
	// The steering prediction is verified at address generation against
	// the trace's actual region (FlagStack); a mismatch starts recovery
	// and the access is re-steered to the correct pipeline.
	if s.decoupled && ti.Mispredicted() {
		if err := s.recoverSteering(seq, e, ti); err != nil {
			return err
		}
	}
	s.memPending = insertSeq(s.memPending, seq)
	return nil
}

// strayWheelBit reports a wheel bit on entry seq with no event due in
// this cycle's bucket.
func (s *simulator) strayWheelBit(seq int64) error {
	return fmt.Errorf("%w: wheel bit for seq %d at cycle %d, which has no event due in this bucket",
		ErrInvariant, seq, s.now)
}

// recoverSteering runs the misprediction-recovery protocol for one
// wrong-queue dispatch: detect the mismatch at address generation,
// cancel the entry from the mispredicted queue, and replay it into the
// correct queue with the configured penalty before it may touch a cache
// port. The straight-line code fixes that order; the entry must still
// sit in the queue dispatch steered it to (the LVAQ iff PredStack), so
// a second recovery or a corrupted queue is an ErrInvariant. The
// destination queue may transiently exceed its size limit — hardware
// reserves a recovery slot; dispatch still observes the limit, so
// occupancy self-corrects.
func (s *simulator) recoverSteering(seq int64, e *robEntry, ti *TraceInst) error {
	from, to := &s.lsq, &s.lvaq
	fromQ, toQ := uint8(qLSQ), uint8(qLVAQ)
	if ti.PredStack() {
		from, to = &s.lvaq, &s.lsq
		fromQ, toQ = qLVAQ, qLSQ
	}
	if e.queue != fromQ {
		return fmt.Errorf("%w: recovery of seq %d found it in the %s, but dispatch steered it to the %s",
			ErrInvariant, seq, s.queue(e.queue).name, from.name)
	}
	s.res.ARPTMispredicts++
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryDetect, 0)
	}
	if err := from.moveTo(to, seq, !ti.IsLoad()); err != nil {
		return err
	}
	if !ti.IsLoad() {
		if err := s.storeMoved(); err != nil {
			return err
		}
	}
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryCancel, 0)
	}
	e.queue = toQ
	e.earlyAddr = s.earlyAddr(ti, toQ)
	e.replayed = true
	s.res.Recoveries++
	if s.trc != nil {
		s.emit(seq, obs.EvRecoveryReplay, int64(s.cfg.MispredictPenalty))
		queueArg := int64(obs.QueueLVAQ)
		if toQ == qLSQ {
			queueArg = obs.QueueLSQ
		}
		s.emit(seq, obs.EvQueueEnter, queueArg)
	}
	return nil
}

// earlyAddr reports whether a memory entry in queue q has a usable
// address from dispatch: a store whose addressing mode makes it
// manifest, or any store in the LVAQ under fast forwarding.
func (s *simulator) earlyAddr(ti *TraceInst, q uint8) bool {
	return !ti.IsLoad() && (ti.Flags&FlagEarlyAddr != 0 || (q == qLVAQ && s.cfg.FastForward))
}

// removeSeq deletes seq from a program-ordered queue, reporting whether
// it was present.
func removeSeq(q []int64, seq int64) ([]int64, bool) {
	for i, v := range q {
		if v == seq {
			copy(q[i:], q[i+1:])
			return q[:len(q)-1], true
		}
		if v > seq {
			break
		}
	}
	return q, false
}

// insertSeq adds seq to a program-ordered queue, keeping the order.
func insertSeq(q []int64, seq int64) []int64 {
	if n := len(q); n == 0 || q[n-1] < seq {
		return append(q, seq)
	}
	i, _ := slices.BinarySearch(q, seq)
	return slices.Insert(q, i, seq)
}

// finish marks an entry done and wakes its consumers. A consumer's
// depB is a store's data: the store, if parked for it, and the loads
// parked on the store as their match return to memPending.
func (s *simulator) finish(seq int64) error {
	e := s.slot(seq)
	e.state = stDone
	if s.trc != nil {
		s.emit(seq, obs.EvComplete, 0)
	}
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
		if bit == depB {
			if ce.mem == parkData {
				if err := s.wake(cseq, parkData); err != nil {
					return err
				}
			}
			if err := s.wakeWaiters(ce); err != nil {
				return err
			}
		}
		s.maybeWake(cseq, ce)
	}
	e.consumers = e.consumers[:0]
	return nil
}

// park takes entry e off the per-cycle lists for reason why; the
// caller files it where its waking event will find it.
func (s *simulator) park(e *robEntry, why uint8) {
	e.mem = why
	s.parked++
}

// wake returns entry seq, parked for reason why, to memPending, where
// memScan decides its verdict afresh. Waking an entry that is not
// parked for that reason is an ErrInvariant.
func (s *simulator) wake(seq int64, why uint8) error {
	e := s.slot(seq)
	if seq < s.headSeq || seq >= s.tailSeq || e.mem != why {
		return fmt.Errorf("%w: wake of seq %d, which is not parked (state %d, want %d)",
			ErrInvariant, seq, e.mem, why)
	}
	e.mem = memActive
	s.parked--
	s.memPending = insertSeq(s.memPending, seq)
	return nil
}

// wakeWaiters wakes the loads parked on store e as their match.
func (s *simulator) wakeWaiters(e *robEntry) error {
	for _, l := range e.waiters {
		if err := s.wake(l, parkStore); err != nil {
			return err
		}
	}
	e.waiters = e.waiters[:0]
	return nil
}

// resolveAddr takes store seq off queue q's unknown-address list and
// wakes the parked loads that no longer have an older unknown-address
// store.
func (s *simulator) resolveAddr(q *memQueue, seq int64) error {
	if err := q.resolveAddr(seq); err != nil {
		return err
	}
	n := len(q.parked)
	if len(q.unknown) > 0 {
		n, _ = slices.BinarySearch(q.parked, q.unknown[0])
	}
	for _, l := range q.parked[:n] {
		if err := s.wake(l, parkQueue); err != nil {
			return err
		}
	}
	q.parked = slices.Delete(q.parked, 0, n)
	return nil
}

// storeMoved runs after recovery moves a store into a queue, the one
// change that can give a load a new older store. Every load parked on a
// store wakes and every cached memCleared verdict is dropped, so
// memScan decides those loads afresh. Loads parked behind an unknown
// address stay parked: the moved store's address is known, so neither
// unknown list changed.
func (s *simulator) storeMoved() error {
	for _, seq := range s.memPending {
		if e := s.slot(seq); e.mem == memCleared {
			e.mem = memActive
		}
	}
	for _, q := range [...]*memQueue{&s.lsq, &s.lvaq} {
		for _, st := range q.stores {
			if err := s.wakeWaiters(s.slot(st.seq)); err != nil {
				return err
			}
		}
	}
	return nil
}

// maybeWake moves a waiting entry to the ready queue once its issue
// condition holds: all operands for ALU operations, the address base
// for memory operations (a store's data may arrive after its address
// generation, as in the paper's pipeline).
func (s *simulator) maybeWake(seq int64, e *robEntry) {
	if e.state != stWaiting {
		return
	}
	// Every memory operation sits in a queue from dispatch on, so the
	// queue tells a memory operation from an ALU one without a trace
	// read.
	need := uint8(depA | depB)
	if e.queue != qNone {
		need = depA
	}
	if e.mask&need == 0 {
		e.state = stReady
		i := seq & s.robMask
		s.ready[i>>6] |= 1 << (i & 63)
	}
}

// memScan walks the active memory entries oldest-first, resolving
// store-to-load forwarding and granting cache ports. An entry that
// cannot act parks on the event that can release it and leaves the
// list; one held by a port or the recovery penalty stays.
func (s *simulator) memScan() error {
	if len(s.memPending) == 0 {
		return nil
	}
	copy(s.budget, s.ports)

	keep := s.memNext[:0]
	// A store's finish can wake younger entries, which insertSeq puts
	// at a later index, so the loop re-reads s.memPending.
	for i := 0; i < len(s.memPending); i++ {
		seq := s.memPending[i]
		e := s.slot(seq)
		if e.replayed && e.evDue+int64(s.cfg.MispredictPenalty) > s.now {
			keep = append(keep, seq)
			continue
		}
		ti := s.inst(seq)
		switch {
		case !ti.IsLoad() && e.mask&depB != 0:
			s.park(e, parkData) // store data not produced yet
			continue
		case ti.IsLoad() && e.mem == memActive:
			switch s.resolveLoad(seq, e, ti) {
			case loadBlocked:
				continue
			case loadForwarded:
				if s.trc != nil {
					s.emit(seq, obs.EvForward, 0)
				}
				s.schedule(evComplete, seq, s.now+1)
				continue
			}
		}
		pi := int(e.part)
		pool := int64(obs.PoolL1)
		if pi != 0 {
			pool = obs.PoolLVC
		}
		if s.budget[pi] == 0 {
			if s.trc != nil {
				s.emit(seq, obs.EvPortStall, pool)
			}
			keep = append(keep, seq)
			continue
		}
		grant := s.nGrant
		s.nGrant++
		if s.faults != nil && s.faults.PortDenied(grant, pi != 0) {
			// Injected port fault: the grant is withdrawn this cycle and
			// the access retries later under a fresh grant ordinal.
			if s.trc != nil {
				s.emit(seq, obs.EvPortStall, pool)
			}
			keep = append(keep, seq)
			continue
		}
		s.budget[pi]--
		s.grants[pi]++
		lat, level := s.accessLatency(ti.Addr, !ti.IsLoad(), pi)
		if s.trc != nil {
			s.emit(seq, obs.EvCacheAccess, obs.CacheArg(pi != 0, !ti.IsLoad(), level))
		}
		if !ti.IsLoad() {
			// Stores complete into the write buffer once they own a
			// port; the cache content is already updated above.
			if err := s.finish(seq); err != nil {
				return err
			}
			continue
		}
		if s.faults != nil {
			lat += s.faults.ExtraLatency(grant)
		}
		s.schedule(evComplete, seq, s.now+int64(lat))
	}
	s.memPending, s.memNext = keep, s.memPending[:0]
	// The port law, checked on a count kept apart from the budget: no
	// partition granted more ports this cycle than it has. The loop
	// also zeroes the counts for the next cycle.
	for pi, n := range s.grants {
		if n > s.ports[pi] {
			return fmt.Errorf("%w: partition %d granted %d ports of %d at cycle %d",
				ErrInvariant, pi, n, s.ports[pi], s.now)
		}
		s.grants[pi] = 0
	}
	return nil
}

const (
	loadProceed = iota
	loadBlocked
	loadForwarded
)

// resolveLoad applies the disambiguation rules of §4.3: a load waits
// until every older store in its queue has a known address, forwards
// from the youngest matching older store whose data is ready, and
// blocks on a matching store whose data is not. With fast forwarding,
// LVAQ store addresses (frame+offset) count as known from dispatch. A
// blocked load parks on its queue or on the matching store; a load
// free to proceed keeps that verdict as memCleared.
func (s *simulator) resolveLoad(seq int64, e *robEntry, ti *TraceInst) int {
	q := s.queue(e.queue)
	match, blocked := q.olderStore(seq, ti.Addr>>2)
	if blocked {
		q.parked = insertSeq(q.parked, seq)
		s.park(e, parkQueue)
		return loadBlocked
	}
	if match >= 0 {
		me := s.slot(match)
		if me.mask&depB != 0 {
			me.waiters = append(me.waiters, seq)
			s.park(e, parkStore) // store data not produced yet
			return loadBlocked
		}
		s.res.Forwards++
		if e.queue == qLVAQ && s.cfg.FastForward {
			s.res.FastForwards++
		}
		return loadForwarded
	}
	e.mem = memCleared
	return loadProceed
}

// accessLatency charges the hierarchy: the steered partition first,
// then the shared L2, then memory. It also reports the level that
// satisfied the access (obs.LevelFirst / LevelL2 / LevelMem).
func (s *simulator) accessLatency(addr uint32, write bool, pi int) (lat, level int) {
	lat = s.plats[pi]
	switch s.hier.Access(pi, addr, write) {
	case cache.LevelFirst:
		return lat, obs.LevelFirst
	case cache.LevelL2:
		return lat + LatL2, obs.LevelL2
	}
	return lat + LatL2 + LatMem, obs.LevelMem
}

// issue moves ready entries to the function units, oldest first,
// bounded by the issue width and per-class FU counts. An entry short of
// a function unit keeps its ready bit. Memory instructions spend their
// issue slot on address generation.
func (s *simulator) issue() (int, error) {
	budget := s.cfg.IssueWidth
	free := [numPools]int{poolIntALU: s.cfg.IntALU, poolFPALU: s.cfg.FPALU,
		poolIntMD: s.cfg.IntMulDiv, poolFPMD: s.cfg.FPMulDiv}

	// The ready bitmap is walked a word at a time, like a wheel bucket
	// in processEvents, clearing the bit of each entry issued. The
	// local word is safe because issue never wakes an entry, so
	// nothing sets a ready bit during the walk.
	issued := 0
	b := s.ready
	wi, base, below := s.walkStart()
	w := b[wi] &^ below
	for k := len(b); ; k-- {
		for ; w != 0 && budget > 0; w &= w - 1 {
			seq := base + int64(bits.TrailingZeros64(w))
			e := s.slot(seq)
			if seq >= s.tailSeq || e.state != stReady {
				return issued, fmt.Errorf("%w: ready bit for seq %d, which is not ready", ErrInvariant, seq)
			}
			fu := fuTable[s.inst(seq).Class]
			if free[fu.pool] == 0 {
				continue
			}
			free[fu.pool]--
			b[wi] &^= w & -w
			budget--
			issued++
			e.state = stIssued
			if s.trc != nil {
				s.emit(seq, obs.EvIssue, 0)
			}
			if e.queue != qNone {
				s.schedule(evAddrDone, seq, s.now+1)
				continue
			}
			s.schedule(evComplete, seq, s.now+int64(fu.lat))
		}
		if k == 0 || budget == 0 {
			return issued, nil
		}
		if wi++; wi == len(b) {
			wi = 0
		}
		base += 64
		if w = b[wi]; k == 1 {
			w &= below
		}
	}
}

// Function-unit pools.
const (
	poolIntALU = iota
	poolFPALU
	poolIntMD
	poolFPMD
	numPools
)

// fuTable maps an instruction class to its function-unit pool and
// latency. Integer ALU operations, branches, jumps, syscalls and the
// address generation of memory operations share the integer ALU pool.
var fuTable = func() (t [256]struct{ pool, lat uint8 }) {
	for c := range t {
		t[c].pool, t[c].lat = poolIntALU, LatIntALU
	}
	t[isa.ClassIntMul].pool, t[isa.ClassIntMul].lat = poolIntMD, LatIntMul
	t[isa.ClassIntDiv].pool, t[isa.ClassIntDiv].lat = poolIntMD, LatIntDiv
	t[isa.ClassFPALU].pool, t[isa.ClassFPALU].lat = poolFPALU, LatFPALU
	t[isa.ClassFPMul].pool, t[isa.ClassFPMul].lat = poolFPMD, LatFPMul
	t[isa.ClassFPDiv].pool, t[isa.ClassFPDiv].lat = poolFPMD, LatFPDiv
	return t
}()

// schedule sets entry seq's one outstanding event and its wheel bit.
func (s *simulator) schedule(kind uint8, seq, cycle int64) {
	e := s.slot(seq)
	e.evKind, e.evDue = kind, cycle
	i := seq & s.robMask
	s.bucket(cycle)[i>>6] |= 1 << (i & 63)
	s.pending++
}

// dispatch brings new trace instructions into the ROB (and LSQ/LVAQ),
// in order, bounded by the decode width and structural space.
func (s *simulator) dispatch() int {
	n := 0
	for n < s.cfg.IssueWidth && s.tailSeq < int64(len(s.insts)) {
		if s.tailSeq-s.headSeq >= int64(s.cfg.ROBSize) {
			s.res.StallROB++
			break
		}
		ti := &s.insts[s.tailSeq]
		queue := uint8(qNone)
		if ti.IsMem() {
			queue = qLSQ
			if s.decoupled && ti.PredStack() {
				queue = qLVAQ
			}
			if queue == qLSQ && len(s.lsq.seqs) >= s.cfg.LSQSize {
				s.res.StallQueue++
				break
			}
			if queue == qLVAQ && len(s.lvaq.seqs) >= s.cfg.LVAQSize {
				s.res.StallQueue++
				break
			}
		}

		seq := s.tailSeq
		s.tailSeq++
		e := s.slot(seq)
		// Reset in place: copying a whole robEntry here is measurable.
		e.state, e.queue, e.mask = stWaiting, queue, 0
		e.earlyAddr, e.part, e.evKind, e.mem = false, 0, evNone, memActive
		e.evDue, e.replayed = 0, false
		e.consumers = e.consumers[:0]
		n++
		if s.trc != nil {
			s.emit(seq, obs.EvDispatch, obs.DispatchArg(ti.IsMem(), ti.IsLoad()))
			switch queue {
			case qLSQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLSQ)
			case qLVAQ:
				s.emit(seq, obs.EvQueueEnter, obs.QueueLVAQ)
			}
		}

		// A source waits on its last writer unless that writer has
		// retired (a seq below headSeq, which covers the -1 of no
		// writer) or is done.
		if src := ti.Src1; src != noReg {
			if w := s.lastWriter[src]; w >= s.headSeq && s.slot(w).state != stDone {
				e.mask |= depA
				we := s.slot(w)
				we.consumers = append(we.consumers, seq<<1)
			}
		}
		if src := ti.Src2; src != noReg {
			if w := s.lastWriter[src]; w >= s.headSeq && s.slot(w).state != stDone {
				e.mask |= depB
				we := s.slot(w)
				we.consumers = append(we.consumers, seq<<1|1)
			}
		}
		if ti.Dest != noReg {
			if ti.Flags&FlagVPHit != 0 {
				// The stride value predictor supplies the result at
				// dispatch; consumers need not wait. The producer still
				// executes to verify.
				s.lastWriter[ti.Dest] = -1
				s.res.VPUsed++
			} else {
				s.lastWriter[ti.Dest] = seq
			}
		}
		if queue != qNone {
			s.memOps++
			if ti.IsLoad() {
				s.loads++
			}
			e.earlyAddr = s.earlyAddr(ti, queue)
			s.queue(queue).add(seq, ti, e.earlyAddr)
		}
		s.maybeWake(seq, e)
	}
	return n
}
