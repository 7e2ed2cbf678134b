package faultinject

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/detrand"
)

// ErrInjected marks an architectural fault raised by the injection
// engine itself; campaigns assert it surfaces through vm.FaultError
// (errors.Is works through the wrapping).
var ErrInjected = errors.New("faultinject: injected memory fault")

// Injector realizes a Plan through the library's deterministic fault
// hooks: SteerFault and VMFault plug into cpu.TraceOptions during the
// functional trace build, and the Injector itself is a cpu.MemFaulter
// for the timing simulation. It tracks which planned faults actually
// fired. An Injector is single-run state; build a fresh one (or Reset)
// per run.
type Injector struct {
	Plan *Plan
	// Table, when non-nil, receives TableBitFlip faults. Point it at
	// the ARPT behind the run's classifier.
	Table *core.ARPT

	fired []bool
	steer map[uint64][]int // memory-reference ordinal → fault indices
	port  map[uint64][]int // port-grant ordinal → PortDrop indices
	lat   map[uint64][]int // port-grant ordinal → LatencyPerturb indices
	vmf   map[uint64][]int // instruction seq → MemFault indices
}

var _ cpu.MemFaulter = (*Injector)(nil)

// NewInjector indexes a plan's faults by their trigger ordinals.
func NewInjector(p *Plan) *Injector {
	inj := &Injector{
		Plan:  p,
		fired: make([]bool, len(p.Faults)),
		steer: make(map[uint64][]int),
		port:  make(map[uint64][]int),
		lat:   make(map[uint64][]int),
		vmf:   make(map[uint64][]int),
	}
	for i, f := range p.Faults {
		switch f.Kind {
		case ForceMispredict, TableBitFlip:
			inj.steer[f.Arg] = append(inj.steer[f.Arg], i)
		case PortDrop:
			inj.port[f.Arg] = append(inj.port[f.Arg], i)
		case LatencyPerturb:
			inj.lat[f.Arg] = append(inj.lat[f.Arg], i)
		case MemFault:
			inj.vmf[f.Arg] = append(inj.vmf[f.Arg], i)
		}
	}
	return inj
}

// Reset clears the fired tracking for a fresh run of the same plan.
func (inj *Injector) Reset() {
	for i := range inj.fired {
		inj.fired[i] = false
	}
}

// FiredCount reports how many planned faults fired at least once.
func (inj *Injector) FiredCount() int {
	n := 0
	for _, f := range inj.fired {
		if f {
			n++
		}
	}
	return n
}

// SteerFault is the cpu.TraceOptions.SteerFault hook: it applies
// ForceMispredict and TableBitFlip faults scheduled at this memory
// reference and returns the (possibly inverted) prediction.
func (inj *Injector) SteerFault(ref uint64, pred core.Prediction) core.Prediction {
	for _, i := range inj.steer[ref] {
		switch f := &inj.Plan.Faults[i]; f.Kind {
		case ForceMispredict:
			pred = !pred
			inj.fired[i] = true
		case TableBitFlip:
			if inj.Table != nil && inj.Table.Flip(f.Extra) {
				inj.fired[i] = true
			}
		}
	}
	return pred
}

// VMFault is the cpu.TraceOptions.VMFault hook: it aborts the
// functional run at a planned MemFault's instruction.
func (inj *Injector) VMFault(seq uint64, pc uint32) error {
	idxs := inj.vmf[seq]
	if len(idxs) == 0 {
		return nil
	}
	for _, i := range idxs {
		inj.fired[i] = true
	}
	return fmt.Errorf("%w (pc %#x)", ErrInjected, pc)
}

// PortDenied implements cpu.MemFaulter.
func (inj *Injector) PortDenied(n uint64, lvc bool) bool {
	idxs := inj.port[n]
	if len(idxs) == 0 {
		return false
	}
	for _, i := range idxs {
		inj.fired[i] = true
	}
	return true
}

// ExtraLatency implements cpu.MemFaulter.
func (inj *Injector) ExtraLatency(n uint64) int {
	extra := 0
	for _, i := range inj.lat[n] {
		extra += int(inj.Plan.Faults[i].Extra)
		inj.fired[i] = true
	}
	return extra
}

// Storm returns a copy of tr whose steering predictions are inverted
// with the given probability — the misprediction-storm generator
// behind the E15 recovery-penalty study. The decision for the n-th
// memory reference is a pure function of (seed, n), so storms are
// reproducible and independent of evaluation order. The flip lands
// after the classifier and never feeds back into it, so flipping the
// finished trace equals building it with the flip as a SteerFault
// hook. A rate of 0 (or less) returns tr itself; tr is never mutated.
func Storm(tr *cpu.Trace, seed uint64, rate float64) *cpu.Trace {
	if rate <= 0 {
		return tr
	}
	if rate > 1 {
		rate = 1
	}
	threshold := uint64(rate * (1 << 32))
	out := *tr
	out.Insts = slices.Clone(tr.Insts)
	var ref uint64
	for i := range out.Insts {
		in := &out.Insts[i]
		if !in.IsMem() {
			continue
		}
		if detrand.Mix(seed, ref)&0xFFFFFFFF < threshold {
			in.Flags ^= cpu.FlagPredStack
		}
		ref++
	}
	return &out
}
