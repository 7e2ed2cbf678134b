package cpu_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the result goldens in testdata/")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// resultLine renders one Result as a golden line: the key counters in
// clear text, then the SHA-256 of the JSON of the whole Result, so any
// field that moves shows up even when the counters shown do not. It
// also round-trips the Result through its packed codec, so every
// result the goldens pin is one the artifact store gives back intact,
// in at most 400 bytes.
func resultLine(t *testing.T, label string, res *cpu.Result) string {
	t.Helper()
	packed, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) > 400 {
		t.Errorf("%s: packed result is %d bytes, want at most 400", label, len(packed))
	}
	back := new(cpu.Result)
	if err := back.UnmarshalBinary(packed); err != nil {
		t.Fatalf("%s: decoding the packed result: %v", label, err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("%s: packed result round trip:\n got %+v\nwant %+v", label, back, res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s cycles=%d insts=%d mispredicts=%d recoveries=%d forwards=%d fastforwards=%d vp=%d stallrob=%d stallqueue=%d l1=%d/%d lvc=%d/%d l2=%d/%d sha256=%x",
		label, res.Cycles, res.Insts, res.ARPTMispredicts, res.Recoveries, res.Forwards,
		res.FastForwards, res.VPUsed, res.StallROB, res.StallQueue,
		res.L1Stats.Accesses, res.L1Stats.Misses, res.LVCStats.Accesses, res.LVCStats.Misses,
		res.L2Stats.Accesses, res.L2Stats.Misses, sha256.Sum256(b))
}

// TestResultGoldenWorkloads pins every cpu.Result field of all twelve
// workloads on the eight Figure 8 machines at 100,000 instructions.
// Any engine change must leave this file byte-identical.
func TestResultGoldenWorkloads(t *testing.T) {
	const n = 100_000
	var b strings.Builder
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
			res, err := cpu.Simulate(tr, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, cfg.Name, err)
			}
			b.WriteString(resultLine(t, w.Name+" "+cfg.Name, res) + "\n")
		}
	}
	checkGolden(t, "results_100k.golden", b.String())
}

// Addresses of the random traces: four stack words and four data
// words, so loads alias older stores often and forward often.
const (
	randStackBase = 0x7fff_ff00
	randDataBase  = 0x1000_0000
	randWords     = 4
)

// randomTrace generates a seeded instruction stream with valid register
// dependences over a small register set. Memory references draw their
// addresses from a pool of eight words; about one in six has its
// steering prediction flipped, so recovery moves it between the LSQ and
// the LVAQ. earlyAddr sets FlagEarlyAddr on about half of the stores;
// the stream is otherwise the same with it on or off.
func randomTrace(seed int64, n int, earlyAddr bool) *cpu.Trace {
	r := rand.New(rand.NewSource(seed))
	reg := func() int8 {
		if r.Intn(4) == 0 {
			return int8(32 + r.Intn(4)) // floating-point registers
		}
		return int8(1 + r.Intn(10))
	}
	src := func() int8 {
		if r.Intn(5) == 0 {
			return -1
		}
		return reg()
	}
	tr := &cpu.Trace{Name: fmt.Sprintf("random-%d", seed), Insts: make([]cpu.TraceInst, n)}
	for i := range tr.Insts {
		ti := &tr.Insts[i]
		ti.Index = int32(r.Intn(64))
		switch k := r.Intn(20); {
		case k < 9: // memory reference
			stack := r.Intn(2) == 0
			ti.Addr = randDataBase + 4*uint32(r.Intn(randWords)) + uint32(r.Intn(4))
			ti.Flags = cpu.FlagMem
			if stack {
				ti.Addr = randStackBase + 4*uint32(r.Intn(randWords)) + uint32(r.Intn(4))
				ti.Flags |= cpu.FlagStack
			}
			if stack != (r.Intn(6) == 0) {
				ti.Flags |= cpu.FlagPredStack
			}
			if r.Intn(4) == 0 {
				ti.Flags |= cpu.FlagFPMem
			}
			ti.Src1, ti.Src2, ti.Dest = src(), -1, -1
			if k < 5 {
				ti.Class = isa.ClassLoad
				ti.Flags |= cpu.FlagLoad
				ti.Dest = reg()
			} else {
				ti.Class = isa.ClassStore
				ti.Src2 = src()
				if r.Intn(2) == 0 && earlyAddr {
					ti.Flags |= cpu.FlagEarlyAddr
				}
			}
		default:
			classes := []isa.Class{isa.ClassIntALU, isa.ClassIntALU, isa.ClassIntALU,
				isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPALU, isa.ClassFPMul,
				isa.ClassFPDiv, isa.ClassBranch}
			ti.Class = classes[r.Intn(len(classes))]
			ti.Src1, ti.Src2, ti.Dest = src(), src(), -1
			if ti.Class != isa.ClassBranch {
				ti.Dest = reg()
				if r.Intn(10) == 0 {
					ti.Flags |= cpu.FlagVPHit
				}
			}
		}
	}
	return tr
}

// recoveryTrace builds a trace of n instructions that drives steering
// recovery through the hard cases of load disambiguation. Each block of
// twelve instructions holds two patterns, on data words that rotate
// from block to block:
//
//   - A store with a manifest address and slow data is mis-steered to
//     the LVAQ. A younger LVAQ load to the same word waits on it as its
//     match. Recovery then moves the store to the LSQ, so the load is
//     left with no match.
//   - A correctly steered LSQ store with slow data is the match of a
//     younger LSQ load. A mis-steered store between the two, to the same
//     word and with its data ready, is moved into the LSQ by recovery
//     and becomes the load's new match.
func recoveryTrace(n int) *cpu.Trace {
	const (
		mem   = cpu.FlagMem
		load  = cpu.FlagMem | cpu.FlagLoad
		early = cpu.FlagEarlyAddr
		pred  = cpu.FlagPredStack
	)
	op := func(class isa.Class, src1, src2, dest int8) cpu.TraceInst {
		return cpu.TraceInst{Class: class, Src1: src1, Src2: src2, Dest: dest}
	}
	memOp := func(class isa.Class, flags uint8, addr uint32, src1, src2, dest int8) cpu.TraceInst {
		return cpu.TraceInst{Class: class, Flags: flags, Addr: addr, Src1: src1, Src2: src2, Dest: dest}
	}
	tr := &cpu.Trace{Name: "recovery", Insts: make([]cpu.TraceInst, n)}
	for i := 0; i < n; i += 12 {
		k := uint32(i / 12)
		moved := randDataBase + 4*(k%randWords)
		movedIn := randDataBase + 4*randWords + 4*((k+1)%randWords)
		block := []cpu.TraceInst{
			op(isa.ClassIntDiv, -1, -1, 2), // slow data of the store moved away
			op(isa.ClassIntMul, -1, -1, 1), // its address base
			memOp(isa.ClassStore, mem|pred|early, moved, 1, 2, -1),
			memOp(isa.ClassLoad, load|cpu.FlagStack|pred, moved, -1, -1, 3),
			op(isa.ClassIntDiv, -1, -1, 4), // slow data of the LSQ store
			memOp(isa.ClassStore, mem|early, movedIn, -1, 4, -1),
			op(isa.ClassIntMul, -1, -1, 5), // address base of the store moved in
			memOp(isa.ClassStore, mem|pred|early, movedIn, 5, -1, -1),
			memOp(isa.ClassLoad, load, movedIn, -1, -1, 6),
			op(isa.ClassIntALU, 3, 6, 7),
			op(isa.ClassIntALU, 7, -1, 8),
			op(isa.ClassIntALU, -1, -1, 9),
		}
		for j := range block {
			block[j].Index = int32(j)
		}
		copy(tr.Insts[i:], block)
	}
	return tr
}

// randomFaults builds an injector that denies every ninth-or-so port
// grant and adds latency to others, within the first grants the run
// can reach.
func randomFaults(seed int64, grants int) *faultinject.Injector {
	r := rand.New(rand.NewSource(seed))
	p := &faultinject.Plan{Seed: uint64(seed)}
	for i := 0; i < grants/9; i++ {
		p.Faults = append(p.Faults,
			faultinject.Fault{Kind: faultinject.PortDrop, Arg: uint64(r.Intn(grants))},
			faultinject.Fault{Kind: faultinject.LatencyPerturb, Arg: uint64(r.Intn(grants)),
				Extra: uint32(1 + r.Intn(20))})
	}
	return faultinject.NewInjector(p)
}

// longLatencyFaults builds an injector that adds 100 to 400 cycles to
// about one granted access in twenty. Those delays outrun every
// latency the machine itself produces, so the engine must hold events
// due far beyond its usual horizon.
func longLatencyFaults(seed int64, grants int) *faultinject.Injector {
	r := rand.New(rand.NewSource(seed))
	p := &faultinject.Plan{Seed: uint64(seed)}
	for i := 0; i < grants/20; i++ {
		p.Faults = append(p.Faults, faultinject.Fault{Kind: faultinject.LatencyPerturb,
			Arg: uint64(r.Intn(grants)), Extra: uint32(100 + r.Intn(301))})
	}
	return faultinject.NewInjector(p)
}

// hashTracer digests the full cycle-event stream of a run in emission
// order, so the golden pins the same-cycle order of every event. The
// engine delivers the events due in one cycle in seq order; the
// digests were re-recorded once when that order replaced the heap's,
// with every other column unchanged.
type hashTracer struct {
	h   hash.Hash
	n   int
	buf [25]byte
}

func (t *hashTracer) Emit(ev obs.Event) {
	binary.LittleEndian.PutUint64(t.buf[0:], uint64(ev.Cycle))
	binary.LittleEndian.PutUint64(t.buf[8:], uint64(ev.Seq))
	t.buf[16] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(t.buf[17:], uint64(ev.Arg))
	t.h.Write(t.buf[:])
	t.n++
}

// hashRecovery digests the recovery steps of the event stream, one
// "<step> <seq> <penalty>" line each.
type hashRecovery struct {
	h hash.Hash
	n int
}

var recoverySteps = map[obs.EventKind]string{
	obs.EvRecoveryDetect: "detect", obs.EvRecoveryCancel: "cancel", obs.EvRecoveryReplay: "replay",
}

func (o *hashRecovery) Emit(ev obs.Event) {
	if step, ok := recoverySteps[ev.Kind]; ok {
		fmt.Fprintf(o.h, "%s %d %d\n", step, ev.Seq, ev.Arg)
		o.n++
	}
}

// tee feeds every event to each of its tracers in turn.
type tee []obs.Tracer

func (t tee) Emit(ev obs.Event) {
	for _, tr := range t {
		tr.Emit(ev)
	}
}

// randomConfigs are the machines the random traces run on: a
// conventional one, the decoupled Table 4 machine with fast forwarding
// on and off, a small decoupled machine whose ROB is not a power of two
// and whose queues fill, at a four-cycle recovery penalty, and
// decoupled machines on the pattern, pchash (over three partitions)
// and none steering policies.
func randomConfigs() []cpu.Config {
	noFF := cpu.Decoupled(2, 2)
	noFF.FastForward = false
	noFF.Name = "(2+2,noff)"
	small := cpu.Decoupled(2, 1).WithPenalty(4)
	small.ROBSize, small.LSQSize, small.LVAQSize = 50, 12, 9
	small.Name = "(2+1,pen4,rob50)"
	pattern := cpu.Decoupled(2, 2)
	pattern.SteerPolicy = cache.SteerPattern
	pattern.Name = "(2+2,pattern)"
	pchash := cpu.Decoupled(2, 2)
	pchash.Partitions = append(pchash.Partitions, cache.LVCConfig(1))
	pchash.SteerPolicy = cache.SteerPCHash
	pchash.Name = "(2+2+1,pchash)"
	none := cpu.Decoupled(3, 1)
	none.SteerPolicy = cache.SteerNone
	none.Name = "(3+1,none)"
	return []cpu.Config{cpu.Conventional(2, 2), cpu.Decoupled(3, 3), noFF, small, pattern, pchash, none}
}

// faultPlans are the memory-pipeline perturbations each random run
// takes, labelled as in the golden: none, dropped ports plus short
// delays, and long delays.
var faultPlans = []struct {
	label string
	build func(seed int64, grants int) *faultinject.Injector
}{
	{"false", nil},
	{"true", randomFaults},
	{"long", longLatencyFaults},
}

// TestResultGoldenRandomTraces pins the engine on seeded aliasing-heavy
// random traces: every Result field, the digest of the full event
// stream and the digest of its recovery steps, across early
// addresses on and off, fast forwarding on and off, every steering
// policy, and injectors dropping ports and adding short or long
// latency. The uninstrumented run must produce the same Result as the
// traced one.
func TestResultGoldenRandomTraces(t *testing.T) {
	const n = 4000
	var b strings.Builder
	record := func(tr *cpu.Trace, seed int64, label string) {
		for _, cfg := range randomConfigs() {
			for _, plan := range faultPlans {
				var opts []cpu.Option
				if plan.build != nil {
					opts = append(opts, cpu.WithFaults(plan.build(seed, n/4)))
				}
				plain, err := cpu.New(cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Run(tr)
				if err != nil {
					t.Fatalf("%s %s: %v", label, cfg.Name, err)
				}
				trc, rec := &hashTracer{h: sha256.New()}, &hashRecovery{h: sha256.New()}
				traced, err := cpu.New(cfg, append(opts, cpu.WithTracer(tee{trc, rec}))...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := traced.Run(tr)
				if err != nil {
					t.Fatalf("%s %s traced: %v", label, cfg.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: traced run diverged from the plain run", label, cfg.Name)
				}
				line := fmt.Sprintf("%s faults=%s %s", label, plan.label, cfg.Name)
				fmt.Fprintf(&b, "%s events=%d/%x recovery=%d/%x\n", resultLine(t, line, want),
					trc.n, trc.h.Sum(nil)[:8], rec.n, rec.h.Sum(nil)[:8])
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, early := range []bool{false, true} {
			record(randomTrace(seed, n, early), seed, fmt.Sprintf("seed=%d early=%t", seed, early))
		}
	}
	// The pinned recovery case (see recoveryTrace), recorded on the
	// engine that re-scanned every waiting memory entry each cycle.
	record(recoveryTrace(n), 7, "pinned=recovery")
	checkGolden(t, "random_traces.golden", b.String())
}

// TestRecoveryTraceReachesWaitingLoads shows that recoveryTrace hits
// the cases it is built for: on the decoupled machines, some store
// recoveries move a store that younger loads are parked on as their
// match, and some make the moved store the new match of a parked load
// in the destination queue. RecoveryWakes also fails the run if a
// recovery leaves any load parked on a store or any verdict kept.
func TestRecoveryTraceReachesWaitingLoads(t *testing.T) {
	tr := recoveryTrace(4000)
	var onMoved, newMatch int
	for _, cfg := range randomConfigs() {
		if !cfg.Decoupled() {
			continue
		}
		sim, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, nm, err := sim.RecoveryWakes(tr)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		t.Logf("%s: %d loads parked on a moved store, %d gaining it as their match", cfg.Name, m, nm)
		onMoved += m
		newMatch += nm
	}
	if onMoved == 0 || newMatch == 0 {
		t.Errorf("recovery trace reached %d loads parked on a moved store and %d gaining one as their match, want both > 0",
			onMoved, newMatch)
	}
}
