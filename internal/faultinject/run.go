package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/detrand"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Golden is the reference outcome of one unfaulted functional run: the
// architectural digest every faulted run is compared against, plus the
// run's shape for fault placement. It is computed by a plain VM run —
// no timing-model code touches the architectural state it
// records, which is what makes the comparison a genuine differential.
type Golden struct {
	Digest ArchDigest
	Shape  RunShape
}

// GoldenRun executes p functionally (truncated at maxInsts; 0 means
// the VM default) and digests its architectural outcome. The run polls
// ctx and fails with its error once it ends.
func GoldenRun(ctx context.Context, p *prog.Program, maxInsts uint64) (*Golden, error) {
	d := newDigester()
	m, err := vm.New(vm.Config{Program: p, Out: d})
	if err != nil {
		return nil, err
	}
	if err := m.Run(ctx, maxInsts, d.observe); err != nil {
		return nil, fmt.Errorf("faultinject: golden run: %w", err)
	}
	return &Golden{
		Digest: d.final(m),
		Shape:  RunShape{Insts: d.insts, MemRefs: d.memRefs},
	}, nil
}

// RunResult is the verdict of one faulted differential run.
type RunResult struct {
	Seed  uint64
	Fired int // planned faults that actually fired

	// Aborted reports a planned architectural MemFault that surfaced
	// correctly as a structured vm.FaultError at AbortSeq.
	Aborted  bool
	AbortSeq uint64

	// Divergence is empty for a surviving run; otherwise it describes
	// how the faulted run broke the architectural-equivalence
	// invariant (or failed to surface a fault in a structured way).
	Divergence string

	Cycles      uint64
	Mispredicts uint64
	Recoveries  uint64
}

// Survived reports whether the run upheld every invariant.
func (r *RunResult) Survived() bool { return r.Divergence == "" }

// RunOne executes one faulted differential run of p under plan:
//
//  1. rebuild the trace with the plan's functional-level faults
//     injected (forced mispredictions, ARPT bit flips, architectural
//     memory faults), digesting the architectural outcome in-line;
//  2. if the plan holds a reachable MemFault, require the run to abort
//     with a structured vm.FaultError at exactly that instruction;
//  3. otherwise require the faulted digest to equal the golden digest
//     byte for byte, then run the timing simulation with the plan's
//     pipeline faults (port drops, latency perturbation) attached and
//     require it to retire the full trace. The engine's own checks
//     (cpu.ErrInvariant) cover misprediction recovery: a failed check
//     fails the simulation, which is a divergence.
//
// Violations are reported in RunResult.Divergence; the error return is
// reserved for harness failures (e.g. an invalid configuration) and
// for ctx ending, which stops the run without a verdict.
func RunOne(ctx context.Context, p *prog.Program, maxInsts uint64, golden *Golden, plan *Plan, cfg cpu.Config) (*RunResult, error) {
	res := &RunResult{Seed: plan.Seed}

	table, err := core.NewARPT(core.DefaultPipelineConfig())
	if err != nil {
		return nil, err
	}
	inj := NewInjector(plan)
	inj.Table = table
	cls, err := core.NewClassifier(
		core.ClassifierConfig{Scheme: core.Scheme1BitHybrid}, core.WithTable(table))
	if err != nil {
		return nil, err
	}

	d := newDigester()
	var faulted ArchDigest
	var finalSeen bool
	tr, err := cpu.BuildTrace(p, cpu.TraceOptions{
		Ctx:        ctx,
		MaxInsts:   maxInsts,
		Classifier: cls,
		SteerFault: inj.SteerFault,
		VMFault:    inj.VMFault,
		Observer:   d.observe,
		Out:        d,
		Final: func(m *vm.Machine) {
			faulted = d.final(m)
			finalSeen = true
		},
	})
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	res.Fired = inj.FiredCount()

	if seq, hasMemFault := plan.FirstMemFault(); hasMemFault && seq < golden.Shape.Insts {
		// The plan demands an architectural abort before the run ends:
		// survival means a structured, correctly-attributed fault.
		switch fe := (*vm.FaultError)(nil); {
		case err == nil:
			res.Divergence = fmt.Sprintf("mem fault at seq %d not surfaced", seq)
		case !errors.As(err, &fe) || !errors.Is(err, ErrInjected):
			res.Divergence = fmt.Sprintf("mem fault surfaced as %v, want a vm.FaultError wrapping ErrInjected", err)
		case fe.Seq != seq:
			res.Divergence = fmt.Sprintf("mem fault attributed to seq %d, injected at %d", fe.Seq, seq)
		default:
			res.Aborted = true
			res.AbortSeq = seq
		}
		return res, nil
	}

	if err != nil {
		res.Divergence = fmt.Sprintf("faulted trace build failed: %v", err)
		return res, nil
	}
	if !finalSeen {
		return nil, fmt.Errorf("faultinject: trace build returned without final state")
	}
	if diff := faulted.Diff(golden.Digest); diff != "" {
		res.Divergence = "architectural divergence: " + diff
		return res, nil
	}

	sim, err := cpu.New(cfg, cpu.WithFaults(inj), cpu.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	sres, err := sim.Run(tr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		res.Divergence = fmt.Sprintf("faulted timing simulation failed: %v", err)
		return res, nil
	}
	res.Fired = inj.FiredCount()
	res.Cycles = sres.Cycles
	res.Mispredicts = sres.ARPTMispredicts
	res.Recoveries = sres.Recoveries
	if sres.Insts != golden.Shape.Insts {
		res.Divergence = fmt.Sprintf("timing model retired %d instructions, golden retired %d",
			sres.Insts, golden.Shape.Insts)
	}
	return res, nil
}

// Summary aggregates a fault campaign over one workload.
type Summary struct {
	Workload     string
	Seed         uint64
	Runs         int
	FaultsPerRun int

	Fired       int // runs where at least one fault fired
	FaultsFired int // total fired faults
	Aborted     int // runs ending in a correctly-surfaced MemFault
	Divergent   int // runs breaking an invariant
	Divergences []string

	Cycles      uint64 // summed over surviving non-abort runs
	Mispredicts uint64
	Recoveries  uint64
}

// maxDivergences bounds how many divergence descriptions a summary
// keeps (the count is always exact).
const maxDivergences = 8

// Survived reports whether every run in the campaign upheld the
// invariants.
func (s *Summary) Survived() bool { return s.Divergent == 0 }

// String renders the summary deterministically (same seed → identical
// text), which the CI determinism check relies on.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s seed=%d runs=%d faults/run=%d fired=%d/%d (faults %d) aborts=%d recoveries=%d mispredicts=%d divergences=%d\n",
		s.Workload, s.Seed, s.Runs, s.FaultsPerRun, s.Fired, s.Runs,
		s.FaultsFired, s.Aborted, s.Recoveries, s.Mispredicts, s.Divergent)
	for _, d := range s.Divergences {
		fmt.Fprintf(&b, "    DIVERGENCE %s\n", d)
	}
	return b.String()
}

// RunCampaign runs a seeded campaign of differential fault runs
// against one program. Per-run plan seeds are derived from the
// campaign seed, so the whole campaign is reproducible from (seed,
// runs, faultsPerRun, maxInsts, cfg). Ending ctx stops the campaign
// with its error.
func RunCampaign(ctx context.Context, p *prog.Program, name string, seed uint64, runs, faultsPerRun int, maxInsts uint64, cfg cpu.Config) (*Summary, error) {
	golden, err := GoldenRun(ctx, p, maxInsts)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", name, err)
	}
	s := &Summary{Workload: name, Seed: seed, Runs: runs, FaultsPerRun: faultsPerRun}
	for i := 0; i < runs; i++ {
		plan := NewPlan(detrand.Mix(seed, uint64(i)), faultsPerRun, golden.Shape)
		rr, err := RunOne(ctx, p, maxInsts, golden, plan, cfg)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s run %d: %w", name, i, err)
		}
		if rr.Fired > 0 {
			s.Fired++
			s.FaultsFired += rr.Fired
		}
		if rr.Aborted {
			s.Aborted++
		}
		if !rr.Survived() {
			s.Divergent++
			if len(s.Divergences) < maxDivergences {
				s.Divergences = append(s.Divergences,
					fmt.Sprintf("%s run %d (plan seed %d): %s", name, i, plan.Seed, rr.Divergence))
			}
		}
		s.Cycles += rr.Cycles
		s.Mispredicts += rr.Mispredicts
		s.Recoveries += rr.Recoveries
	}
	return s, nil
}
