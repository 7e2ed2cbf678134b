package faultinject

import (
	"testing"

	"repro/internal/core"
)

func TestPlanDeterministic(t *testing.T) {
	shape := RunShape{Insts: 50_000, MemRefs: 12_000}
	a := NewPlan(7, 32, shape)
	b := NewPlan(7, 32, shape)
	if len(a.Faults) != 32 || len(b.Faults) != 32 {
		t.Fatalf("plan sizes %d/%d, want 32", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs between same-seed plans: %v vs %v",
				i, a.Faults[i], b.Faults[i])
		}
	}
	c := NewPlan(8, 32, shape)
	same := 0
	for i := range a.Faults {
		if a.Faults[i] == c.Faults[i] {
			same++
		}
	}
	if same == len(a.Faults) {
		t.Fatalf("different seeds produced identical plans")
	}
}

func TestPlanPlacement(t *testing.T) {
	shape := RunShape{Insts: 10_000, MemRefs: 2_500}
	p := NewPlan(99, 500, shape)
	for _, f := range p.Faults {
		switch f.Kind {
		case ForceMispredict, TableBitFlip:
			if f.Arg >= shape.MemRefs {
				t.Fatalf("%v placed past the reference stream (%d refs)", f, shape.MemRefs)
			}
		case PortDrop, LatencyPerturb:
			if f.Arg >= shape.MemRefs/4 {
				t.Fatalf("%v placed past the low-grant window", f)
			}
			if f.Kind == LatencyPerturb && (f.Extra < 1 || f.Extra > 64) {
				t.Fatalf("%v extra latency out of [1,64]", f)
			}
		case MemFault:
			if f.Arg < shape.Insts/4 || f.Arg >= shape.Insts {
				t.Fatalf("%v placed outside [insts/4, insts)", f)
			}
		default:
			t.Fatalf("unknown kind in %v", f)
		}
	}
}

func TestPlanCoversAllKinds(t *testing.T) {
	shape := RunShape{Insts: 10_000, MemRefs: 2_500}
	seen := make(map[Kind]bool)
	p := NewPlan(3, 200, shape)
	for _, f := range p.Faults {
		seen[f.Kind] = true
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("200 drawn faults never produced kind %v", k)
		}
	}
}

func TestFirstMemFault(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: PortDrop, Arg: 3},
		{Kind: MemFault, Arg: 900},
		{Kind: MemFault, Arg: 400},
	}}
	seq, ok := p.FirstMemFault()
	if !ok || seq != 400 {
		t.Fatalf("FirstMemFault = %d,%v, want 400,true", seq, ok)
	}
	if _, ok := (&Plan{}).FirstMemFault(); ok {
		t.Fatalf("empty plan reported a mem fault")
	}
}

func TestInjectorHooks(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: ForceMispredict, Arg: 2},
		{Kind: PortDrop, Arg: 5},
		{Kind: LatencyPerturb, Arg: 7, Extra: 13},
		{Kind: MemFault, Arg: 11},
	}}
	inj := NewInjector(plan)

	if got := inj.SteerFault(1, core.PredictStack); got != core.PredictStack {
		t.Fatalf("unfaulted ref perturbed")
	}
	if got := inj.SteerFault(2, core.PredictStack); got != core.PredictNonStack {
		t.Fatalf("ForceMispredict did not invert the prediction")
	}
	if inj.PortDenied(4, false) || !inj.PortDenied(5, true) {
		t.Fatalf("PortDenied fired on the wrong grant")
	}
	if inj.ExtraLatency(6) != 0 || inj.ExtraLatency(7) != 13 {
		t.Fatalf("ExtraLatency fired on the wrong grant")
	}
	if err := inj.VMFault(10, 0); err != nil {
		t.Fatalf("unfaulted seq aborted: %v", err)
	}
	if err := inj.VMFault(11, 0x40); err == nil {
		t.Fatalf("MemFault seq did not abort")
	}
	if got := inj.FiredCount(); got != 4 {
		t.Fatalf("FiredCount = %d, want 4", got)
	}
	inj.Reset()
	if got := inj.FiredCount(); got != 0 {
		t.Fatalf("FiredCount after Reset = %d, want 0", got)
	}
}

func TestInjectorTableFlip(t *testing.T) {
	table, err := core.NewARPT(core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Faults: []Fault{{Kind: TableBitFlip, Arg: 0, Extra: 17}}}
	inj := NewInjector(plan)
	inj.Table = table

	before := table.Predict(17<<2, core.Context{})
	if got := inj.SteerFault(0, core.PredictStack); got != core.PredictStack {
		t.Fatalf("TableBitFlip perturbed the in-flight prediction")
	}
	after := table.Predict(17<<2, core.Context{})
	if before == after {
		t.Fatalf("TableBitFlip left entry 17 unchanged (%v)", before)
	}
	if inj.FiredCount() != 1 {
		t.Fatalf("flip not recorded as fired")
	}
}

func TestKindAndFaultStrings(t *testing.T) {
	cases := map[string]string{
		Fault{Kind: ForceMispredict, Arg: 9}.String():           "force-mispredict@ref9",
		Fault{Kind: TableBitFlip, Arg: 1, Extra: 4}.String():    "table-bit-flip@ref1(entry 4)",
		Fault{Kind: PortDrop, Arg: 2}.String():                  "port-drop@grant2",
		Fault{Kind: LatencyPerturb, Arg: 3, Extra: 10}.String(): "latency-perturb@grant3(+10 cycles)",
		Fault{Kind: MemFault, Arg: 77}.String():                 "mem-fault@seq77",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("Fault.String = %q, want %q", got, want)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatalf("unknown Kind String = %q", Kind(200).String())
	}
}
