package faultinject

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/detrand"
	"repro/internal/workload"
)

// stormHook is the reference storm: Storm's per-reference predicate
// applied during the trace build through the SteerFault hook.
func stormHook(seed uint64, rate float64) func(uint64, core.Prediction) core.Prediction {
	threshold := uint64(min(rate, 1) * (1 << 32))
	return func(ref uint64, pred core.Prediction) core.Prediction {
		if rate > 0 && detrand.Mix(seed, ref)&0xFFFFFFFF < threshold {
			return !pred
		}
		return pred
	}
}

// TestStorm checks the storm transform against the reference hook on
// several workloads and rates — the whole Trace must compare equal,
// because the flip lands after the classifier and never feeds back —
// and pins its rate, determinism and no-mutation contracts.
func TestStorm(t *testing.T) {
	const seed, maxInsts = 5, 30_000
	for _, name := range []string{"li", "go", "compress", "swim"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		p, err := w.Compile(testScale)
		if err != nil {
			t.Fatal(err)
		}
		base, err := cpu.BuildTrace(p, cpu.TraceOptions{MaxInsts: maxInsts})
		if err != nil {
			t.Fatal(err)
		}
		orig := slices.Clone(base.Insts)
		var memRefs int
		for i := range base.Insts {
			if base.Insts[i].IsMem() {
				memRefs++
			}
		}
		for _, rate := range []float64{0, 0.01, 0.3, 1} {
			got := Storm(base, seed, rate)
			want, err := cpu.BuildTrace(p, cpu.TraceOptions{MaxInsts: maxInsts, SteerFault: stormHook(seed, rate)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rate %g: Storm differs from the SteerFault reference build", name, rate)
			}
			if !reflect.DeepEqual(Storm(base, seed, rate), got) {
				t.Fatalf("%s rate %g: same-seed storms differ", name, rate)
			}
			flips := 0
			for i := range got.Insts {
				if got.Insts[i].PredStack() != base.Insts[i].PredStack() {
					flips++
				}
			}
			switch rate {
			case 0:
				if got != base {
					t.Fatalf("%s: rate-0 storm did not return the input trace", name)
				}
			case 0.3:
				if lo, hi := memRefs*25/100, memRefs*35/100; flips < lo || flips > hi {
					t.Fatalf("%s: rate-0.3 storm flipped %d/%d refs", name, flips, memRefs)
				}
			case 1:
				if flips != memRefs {
					t.Fatalf("%s: rate-1 storm flipped %d/%d refs", name, flips, memRefs)
				}
			}
		}
		if !slices.Equal(base.Insts, orig) {
			t.Fatalf("%s: Storm mutated its input trace", name)
		}
	}
}
