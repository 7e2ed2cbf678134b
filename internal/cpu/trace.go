// Package cpu implements the paper's detailed timing simulator: a
// trace-driven, cycle-level model of the Table 4 machine — a 16-wide
// out-of-order superscalar with a 256-entry ROB, an LSQ (and, when
// data-decoupled, an LVAQ), multi-ported L1/LVC caches backed by an L2
// and memory, per-class function units with MIPS R10000 latencies, a
// stride value predictor, and ARPT-driven steering with misprediction
// recovery.
//
// The paper's own methodology uses a perfect instruction cache and
// perfect branch prediction "to assert the maximum pressure on the data
// memory bandwidth"; under perfect fetch the dynamic instruction stream
// equals the committed path, which is exactly what a trace-driven model
// replays. Register data dependences, structural hazards, memory-port
// contention, store-to-load forwarding and ARPT mispredictions are all
// modeled cycle by cycle.
package cpu

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Register-id space for dependence tracking: integer registers are
// 0..31, floating-point registers 32..63.
const (
	numDepRegs = 64
	noReg      = -1
)

// TraceInst is one dynamic instruction prepared for timing simulation.
type TraceInst struct {
	Addr  uint32 // effective address (memory instructions)
	Index int32  // static instruction index
	Class isa.Class
	Src1  int8 // dependence-register ids, noReg when absent
	Src2  int8
	Dest  int8
	Flags uint8
}

// TraceInst flags.
const (
	FlagMem       = 1 << iota // load or store
	FlagLoad                  // load (valid when FlagMem)
	FlagStack                 // actual region is stack
	FlagPredStack             // ARPT/dispatch predicted stack
	FlagVPHit                 // stride value predictor supplies the result
	FlagFPMem                 // memory value is floating point
	FlagEarlyAddr             // address manifest in the addressing mode
)

// IsMem reports whether the instruction touches memory.
func (t *TraceInst) IsMem() bool { return t.Flags&FlagMem != 0 }

// IsLoad reports whether the instruction is a load.
func (t *TraceInst) IsLoad() bool { return t.Flags&FlagLoad != 0 }

// Stack reports whether the access actually fell in the stack region.
func (t *TraceInst) Stack() bool { return t.Flags&FlagStack != 0 }

// PredStack reports the dispatch-time steering prediction.
func (t *TraceInst) PredStack() bool { return t.Flags&FlagPredStack != 0 }

// Mispredicted reports an ARPT steering misprediction.
func (t *TraceInst) Mispredicted() bool {
	return t.IsMem() && t.Stack() != t.PredStack()
}

// AccessInfo projects the instruction onto the cache-steering view:
// the value cache.Hierarchy.Steer sees when the simulator grants
// this access a port.
func (t *TraceInst) AccessInfo() core.AccessInfo {
	return core.AccessInfo{
		Addr:      t.Addr,
		Index:     t.Index,
		IsLoad:    t.IsLoad(),
		IsFP:      t.Flags&FlagFPMem != 0,
		Stack:     t.Stack(),
		PredStack: t.PredStack(),
		EarlyAddr: t.Flags&FlagEarlyAddr != 0,
	}
}

// Trace is a program's dynamic instruction stream with steering
// predictions and value-prediction outcomes precomputed. Predictor
// state evolves in fetch order, which the trace preserves, so one trace
// serves every machine configuration.
//
// A Trace is immutable after BuildTrace returns: Simulate only reads
// it, so a single trace may back any number of concurrent simulations
// (the parallel experiment harness relies on this).
type Trace struct {
	Name  string
	Insts []TraceInst

	// PredictorStats is the classification accounting of the steering
	// classifier used to build the trace.
	PredictorStats core.ClassifyStats
}

// TraceOptions configures trace generation.
type TraceOptions struct {
	// MaxInsts bounds the functional run (0 = VM default).
	MaxInsts uint64
	// Classifier steers memory instructions. Nil uses the paper's
	// pipeline default (static rules + 32K-entry hybrid ARPT, no
	// compiler hints).
	Classifier *core.Classifier
	// DisableValuePred turns the stride value predictor off (the base
	// machine model has it on).
	DisableValuePred bool
	// PerfectSteering steers every reference to its true region,
	// bypassing the classifier — the contamination-free upper bound for
	// steering-policy ablations.
	PerfectSteering bool

	// Ctx cancels trace generation cooperatively: the functional run
	// polls it (see vm.Machine.Run) and its error surfaces wrapped
	// through the returned error, so a per-workload watchdog deadline
	// aborts the functional pre-pass cleanly. Nil means no
	// cancellation.
	Ctx context.Context

	// SteerFault perturbs the steering prediction of the n-th dynamic
	// memory reference (0-based) after the classifier has produced
	// pred. It is the trace-level fault-injection hook: forced
	// mispredictions and predictor-state corruption enter here. The
	// hook must be deterministic; nil injects nothing.
	SteerFault func(ref uint64, pred core.Prediction) core.Prediction

	// VMFault is installed as the functional machine's FaultHook (see
	// vm.Machine.FaultHook): a non-nil return from it aborts trace
	// generation with a vm.FaultError. Nil injects nothing.
	VMFault func(seq uint64, pc uint32) error

	// Observer, when non-nil, receives every retired vm.Event after it
	// has been folded into the trace — the differential-validation tap
	// used to digest the architectural instruction stream of a faulted
	// trace build without a second functional run.
	Observer func(ev vm.Event)

	// Final, when non-nil, is called once with the functional machine
	// after a successful build, so callers can digest final
	// architectural state (registers, memory, exit code).
	Final func(m *vm.Machine)

	// Out receives program output from the functional run (nil
	// discards it).
	Out io.Writer
}

// valuePredictor is the Table 4 stride-based register value predictor.
type valuePredictor struct {
	last   [16384]uint32
	stride [16384]int32
	conf   [16384]uint8
	seen   [16384]bool
}

func (v *valuePredictor) idx(pc uint32) uint32 { return (pc >> 2) & 16383 }

// observe processes one produced register value and reports whether the
// predictor would have supplied it (confident and correct).
func (v *valuePredictor) observe(pc uint32, val uint32) bool {
	i := v.idx(pc)
	hit := false
	if v.seen[i] {
		pred := v.last[i] + uint32(v.stride[i])
		if v.conf[i] >= 2 && pred == val {
			hit = true
		}
		newStride := int32(val - v.last[i])
		if newStride == v.stride[i] {
			if v.conf[i] < 3 {
				v.conf[i]++
			}
		} else {
			v.conf[i] = 0
			v.stride[i] = newStride
		}
	}
	v.last[i] = val
	v.seen[i] = true
	return hit
}

// depReg maps an architectural register to a dependence id.
func depReg(r isa.Register, fp bool) int8 {
	if fp {
		return int8(r) + 32
	}
	if r == isa.Zero {
		return noReg // $zero never carries a dependence
	}
	return int8(r)
}

// maxTraceReserve caps the instructions BuildTrace reserves room for
// up front (16 MiB of TraceInsts), so a short program under a huge
// MaxInsts does not reserve gigabytes; a longer trace grows past it.
const maxTraceReserve = 1 << 20

// BuildTrace runs program p functionally and produces its timing trace.
func BuildTrace(p *prog.Program, opts TraceOptions) (*Trace, error) {
	m, err := vm.New(vm.Config{Program: p, Out: opts.Out})
	if err != nil {
		return nil, err
	}
	m.FaultHook = opts.VMFault
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cls := opts.Classifier
	if cls == nil {
		table, err := core.NewARPT(core.DefaultPipelineConfig())
		if err != nil {
			return nil, err
		}
		cls, err = core.NewClassifier(
			core.ClassifierConfig{Scheme: Scheme1BitHybridPipeline},
			core.WithTable(table))
		if err != nil {
			return nil, err
		}
	}

	tr := &Trace{Name: p.Name}
	if opts.MaxInsts > 0 {
		tr.Insts = make([]TraceInst, 0, min(opts.MaxInsts, maxTraceReserve))
	}
	var vp valuePredictor
	var fetch core.Context
	var memRef uint64 // dynamic memory-reference ordinal for SteerFault

	observe := func(ev vm.Event) {
		in := ev.Inst
		ti := TraceInst{
			Index: int32(ev.Index),
			Class: in.Classify(),
			Src1:  noReg, Src2: noReg, Dest: noReg,
		}

		var srcs [4]int8
		n := 0
		regs, nregs := in.Sources()
		for _, r := range regs[:nregs] {
			if d := depReg(r, false); d != noReg {
				srcs[n] = d
				n++
			}
		}
		regs, nregs = in.FPSources()
		for _, r := range regs[:nregs] {
			srcs[n] = depReg(r, true)
			n++
		}
		if n > 0 {
			ti.Src1 = srcs[0]
		}
		if n > 1 {
			ti.Src2 = srcs[1]
		}
		if d, ok := in.Dest(); ok {
			ti.Dest = depReg(d, false)
		} else if d, ok := in.FPDest(); ok {
			ti.Dest = depReg(d, true)
		}

		if in.IsMem() {
			ti.Flags |= FlagMem
			if in.IsLoad() {
				ti.Flags |= FlagLoad
			}
			if in.IsFPMem() {
				ti.Flags |= FlagFPMem
			}
			ti.Addr = ev.MemAddr
			fetch.CID = m.Reg(isa.RA)
			ref := core.NewRefEvent(ev, fetch)
			if ref.Covered {
				// $sp/$fp/$gp/constant addressing: the effective address
				// is computable at dispatch in any machine (the base
				// register is architecturally stable), so disambiguation
				// need not wait for the AGU.
				ti.Flags |= FlagEarlyAddr
			}
			if ref.Actual == core.PredictStack {
				ti.Flags |= FlagStack
			}
			var pred core.Prediction
			if opts.PerfectSteering {
				pred = ref.Actual
				cls.Stats.Total++
				cls.Stats.Correct++
			} else {
				pred = cls.Classify(ref)
			}
			if opts.SteerFault != nil {
				pred = opts.SteerFault(memRef, pred)
			}
			memRef++
			if pred == core.PredictStack {
				ti.Flags |= FlagPredStack
			}
		}
		if in.IsBranch() {
			fetch.UpdateGBH(ev.Taken)
		}

		if !opts.DisableValuePred && ti.Dest != noReg && ti.Dest < 32 {
			// The stride predictor covers the integer register stream
			// (the paper: "for the register values").
			if vp.observe(ev.PC, m.Reg(isa.Register(ti.Dest))) {
				ti.Flags |= FlagVPHit
			}
		}

		tr.Insts = append(tr.Insts, ti)
		if opts.Observer != nil {
			opts.Observer(ev)
		}
	}
	if err := m.Run(ctx, opts.MaxInsts, observe); err != nil {
		return nil, fmt.Errorf("cpu: trace generation: %w", err)
	}
	tr.PredictorStats = cls.Stats
	if opts.Final != nil {
		opts.Final(m)
	}
	return tr, nil
}

// Scheme1BitHybridPipeline names the steering classifier configuration
// used in traces (for reporting only).
const Scheme1BitHybridPipeline = core.Scheme1BitHybrid
