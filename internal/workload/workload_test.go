package workload

import (
	"context"
	"testing"

	"repro/internal/profile"
	"repro/internal/region"
)

func TestAllCompile(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Short, func(t *testing.T) {
			p, err := w.Compile(1)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
		})
	}
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("got %d workloads, want 12", len(all))
	}
	if len(Integer()) != 8 || len(Float()) != 4 {
		t.Fatalf("integer/float split wrong: %d/%d", len(Integer()), len(Float()))
	}
	for _, w := range Integer() {
		if w.FP {
			t.Errorf("%s: integer workload marked FP", w.Name)
		}
	}
	for _, w := range Float() {
		if !w.FP {
			t.Errorf("%s: float workload not marked FP", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate name %s", w.Name)
		}
		seen[w.Name] = true
		if w.DefaultScale <= 0 {
			t.Errorf("%s: non-positive default scale", w.Name)
		}
		if w.About == "" {
			t.Errorf("%s: missing About", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("099.go"); !ok || w.Short != "go" {
		t.Error("lookup by full name failed")
	}
	if w, ok := ByName("vortex"); !ok || w.Name != "147.vortex" {
		t.Error("lookup by short name failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name resolved")
	}
}

// TestRunDeterministic runs every workload twice at scale 1 and checks
// that execution is fully deterministic (same exit code, same dynamic
// instruction count) — a prerequisite for every experiment.
func TestRunDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Short, func(t *testing.T) {
			t.Parallel()
			p, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			a, err := profile.Run(context.Background(), p, 0, nil)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			b, err := profile.Run(context.Background(), p, 0, nil)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if a.ExitCode != b.ExitCode || a.DynInsts != b.DynInsts {
				t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)",
					a.ExitCode, a.DynInsts, b.ExitCode, b.DynInsts)
			}
			if a.DynInsts < 50_000 {
				t.Errorf("only %d dynamic instructions at scale 1; too small to profile", a.DynInsts)
			}
			if a.DynRefs() == 0 {
				t.Error("no memory references")
			}
			t.Logf("%s: %d insts, %.0f%% loads, %.0f%% stores, exit %d",
				w.Name, a.DynInsts, a.LoadPct(), a.StorePct(), a.ExitCode)
		})
	}
}

// TestRegionSignatures checks that each workload reproduces the coarse
// region mix of its SPEC95 namesake (the property the substitution must
// preserve; see DESIGN.md).
func TestRegionSignatures(t *testing.T) {
	profiles := map[string]*profile.Profile{}
	for _, w := range All() {
		p, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := profile.Run(context.Background(), p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		profiles[w.Short] = pr
	}
	frac := func(pr *profile.Profile, r region.Region) float64 {
		return float64(pr.RegionRefs[r]) / float64(pr.DynRefs())
	}

	// go and compress: essentially no heap.
	for _, name := range []string{"go", "compress"} {
		if f := frac(profiles[name], region.Heap); f > 0.02 {
			t.Errorf("%s: heap fraction %.3f, want ~0", name, f)
		}
	}
	// compress and mgrid: data-dominant.
	for _, name := range []string{"compress", "mgrid"} {
		pr := profiles[name]
		if frac(pr, region.Data) < frac(pr, region.Stack) {
			t.Errorf("%s: data fraction %.3f below stack %.3f, want data-dominant",
				name, frac(pr, region.Data), frac(pr, region.Stack))
		}
	}
	// vortex: stack-dominant.
	pr := profiles["vortex"]
	if frac(pr, region.Stack) < frac(pr, region.Data) || frac(pr, region.Stack) < frac(pr, region.Heap) {
		t.Errorf("vortex: stack %.3f not dominant (data %.3f heap %.3f)",
			frac(pr, region.Stack), frac(pr, region.Data), frac(pr, region.Heap))
	}
	// li and perl: significant heap traffic.
	for _, name := range []string{"li", "perl"} {
		if f := frac(profiles[name], region.Heap); f < 0.08 {
			t.Errorf("%s: heap fraction %.3f, want >= 0.08", name, f)
		}
	}
	// FP programs: near-zero heap except su2cor's small scratch.
	for _, name := range []string{"tomcatv", "swim", "mgrid"} {
		if f := frac(profiles[name], region.Heap); f > 0.02 {
			t.Errorf("%s: heap fraction %.3f, want ~0", name, f)
		}
	}
}
