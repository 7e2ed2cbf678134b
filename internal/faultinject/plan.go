// Package faultinject is the deterministic fault-injection engine and
// differential-validation harness for the memory pipeline. A seeded
// PRNG expands into a Plan of timing- and architectural-level faults;
// an Injector realizes the plan through the library's deterministic
// hooks (cpu.TraceOptions.SteerFault/VMFault, cpu.WithFaults);
// and RunOne replays every faulted run against the functional VM's
// golden digest, asserting that timing-layer faults never change
// architectural results. The whole pipeline is a pure function of the
// seed: same seed, same faults, same verdict, byte for byte.
package faultinject

import (
	"fmt"

	"repro/internal/detrand"
)

// Kind classifies an injected fault.
type Kind uint8

// The fault taxonomy (DESIGN.md §8). The first four are timing-level:
// they may change cycle counts but must never change architectural
// results. MemFault is architectural by construction and must surface
// as a structured vm.FaultError, never as corruption.
const (
	// ForceMispredict inverts the steering prediction of one dynamic
	// memory reference, forcing a wrong-queue dispatch and a recovery.
	ForceMispredict Kind = iota
	// TableBitFlip flips the decision bit of one ARPT entry — the
	// soft-error model. Every later prediction through that entry may
	// change.
	TableBitFlip
	// PortDrop withdraws one granted cache port; the access retries.
	PortDrop
	// LatencyPerturb adds extra cycles to one granted load access.
	LatencyPerturb
	// MemFault aborts the program architecturally at one dynamic
	// instruction (the VM-level fault model).
	MemFault

	numKinds
)

var kindNames = [numKinds]string{
	"force-mispredict", "table-bit-flip", "port-drop", "latency-perturb", "mem-fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one planned injection. Arg is the deterministic trigger
// ordinal; its meaning depends on Kind: the dynamic memory-reference
// ordinal for ForceMispredict and TableBitFlip, the cache-port grant
// ordinal for PortDrop and LatencyPerturb, and the dynamic instruction
// number for MemFault. Extra carries the ARPT entry selector
// (TableBitFlip) or the added cycles (LatencyPerturb).
type Fault struct {
	Kind  Kind
	Arg   uint64
	Extra uint32
}

func (f Fault) String() string {
	switch f.Kind {
	case TableBitFlip:
		return fmt.Sprintf("%s@ref%d(entry %d)", f.Kind, f.Arg, f.Extra)
	case LatencyPerturb:
		return fmt.Sprintf("%s@grant%d(+%d cycles)", f.Kind, f.Arg, f.Extra)
	case PortDrop:
		return fmt.Sprintf("%s@grant%d", f.Kind, f.Arg)
	case MemFault:
		return fmt.Sprintf("%s@seq%d", f.Kind, f.Arg)
	}
	return fmt.Sprintf("%s@ref%d", f.Kind, f.Arg)
}

// RunShape is the measured shape of a golden run, used to place faults
// where they can actually fire.
type RunShape struct {
	Insts   uint64 // retired dynamic instructions
	MemRefs uint64 // dynamic memory references
}

// Plan is a seeded set of faults for one run.
type Plan struct {
	Seed   uint64
	Shape  RunShape
	Faults []Fault
}

// NewPlan expands a seed into n faults placed within shape. Kinds are
// drawn from a weighted table: timing-level faults dominate (they
// exercise the differential invariant); architectural MemFaults are
// rare (1/16) because each one ends its run early. Reference- and
// instruction-indexed faults always land on ordinals the run reaches;
// port-grant ordinals are drawn low (first quarter of the reference
// stream) so they fire with high probability even though forwarded
// loads never take a port.
func NewPlan(seed uint64, n int, shape RunShape) *Plan {
	r := detrand.New(seed)
	p := &Plan{Seed: seed, Shape: shape, Faults: make([]Fault, 0, n)}
	refs := shape.MemRefs
	if refs == 0 {
		refs = 1
	}
	for i := 0; i < n; i++ {
		var f Fault
		switch w := r.Next() % 16; {
		case w < 5:
			f = Fault{Kind: ForceMispredict, Arg: r.Intn(refs)}
		case w < 9:
			f = Fault{Kind: TableBitFlip, Arg: r.Intn(refs), Extra: uint32(r.Next())}
		case w < 12:
			f = Fault{Kind: PortDrop, Arg: r.Intn(max64(refs/4, 1))}
		case w < 15:
			f = Fault{Kind: LatencyPerturb, Arg: r.Intn(max64(refs/4, 1)), Extra: uint32(1 + r.Intn(64))}
		default:
			lo := shape.Insts / 4
			f = Fault{Kind: MemFault, Arg: lo + r.Intn(max64(shape.Insts-lo, 1))}
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

// FirstMemFault reports the earliest architectural fault in the plan.
func (p *Plan) FirstMemFault() (seq uint64, ok bool) {
	for _, f := range p.Faults {
		if f.Kind == MemFault && (!ok || f.Arg < seq) {
			seq, ok = f.Arg, true
		}
	}
	return seq, ok
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
