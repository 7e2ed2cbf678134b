package profile

import (
	"context"
	"testing"

	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/workload"
)

func run(t *testing.T, src string, max uint64) *Profile {
	t.Helper()
	p, err := minicc.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pr, err := Run(context.Background(), p, max, nil)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return pr
}

const threeRegionSrc = `
int g[64];
int sink;
int main() {
	int a[64];
	int *h = malloc(64 * sizeof(int));
	int i;
	int it;
	for (it = 0; it < 50; it++) {
		for (i = 0; i < 64; i++) {
			g[i] = i;
			a[i] = i + 1;
			h[i] = i + 2;
		}
		sink += g[it & 63] + a[it & 63] + h[it & 63];
	}
	return sink & 255;
}`

func TestCountsAndRegions(t *testing.T) {
	pr := run(t, threeRegionSrc, 0)
	if pr.DynInsts == 0 || pr.DynRefs() == 0 {
		t.Fatal("empty profile")
	}
	if pr.DynLoads+pr.DynStores != pr.DynRefs() {
		t.Error("loads+stores != refs")
	}
	for r := 0; r < region.Count; r++ {
		if pr.RegionRefs[r] == 0 {
			t.Errorf("no %v references", region.Region(r))
		}
	}
	if pr.LoadPct() <= 0 || pr.StorePct() <= 0 || pr.LoadPct()+pr.StorePct() >= 100 {
		t.Errorf("percentages: %f / %f", pr.LoadPct(), pr.StorePct())
	}
	// Every stack reference, and only those, goes through the LVC.
	if lvc := pr.LVC; lvc.Accesses != pr.RegionRefs[region.Stack] || lvc.Hits+lvc.Misses != lvc.Accesses {
		t.Errorf("LVC %+v for %d stack references", lvc, pr.RegionRefs[region.Stack])
	}
}

func TestClassesSingleRegionDominates(t *testing.T) {
	pr := run(t, threeRegionSrc, 0)
	b := pr.Classes()
	if b.StaticTotal == 0 {
		t.Fatal("no static memory instructions")
	}
	if b.MultiRegionStaticPct() > 10 {
		t.Errorf("multi-region static = %.1f%%", b.MultiRegionStaticPct())
	}
	var sum int
	for _, n := range b.StaticByClass {
		sum += n
	}
	if sum != b.StaticTotal {
		t.Errorf("class counts sum %d != total %d", sum, b.StaticTotal)
	}
}

func TestWindowInvariants(t *testing.T) {
	pr := run(t, threeRegionSrc, 0)
	if len(pr.Windows) != len(WindowSizes) {
		t.Fatalf("windows = %d", len(pr.Windows))
	}
	for _, w := range pr.Windows {
		var meanSum float64
		for r := 0; r < region.Count; r++ {
			m := w.Mean(region.Region(r))
			if m < 0 || m > float64(w.Size) {
				t.Errorf("window %d: mean %v out of range", w.Size, m)
			}
			meanSum += m
		}
		// Total memory accesses per window cannot exceed the window.
		if meanSum > float64(w.Size) {
			t.Errorf("window %d: region means sum to %.2f", w.Size, meanSum)
		}
	}
	// The 64-window means should be about double the 32-window means.
	for r := 0; r < region.Count; r++ {
		m32 := pr.Windows[0].Mean(region.Region(r))
		m64 := pr.Windows[1].Mean(region.Region(r))
		if m32 > 0.2 && (m64 < 1.5*m32 || m64 > 2.5*m32) {
			t.Errorf("%v: w64 %.2f vs w32 %.2f", region.Region(r), m64, m32)
		}
	}
}

func TestOracleHints(t *testing.T) {
	pr := run(t, threeRegionSrc, 0)
	oracle := pr.Oracle()
	counts := map[prog.Hint]int{}
	for i := range pr.PerInst {
		counts[oracle(i)]++
	}
	if counts[prog.HintStack] == 0 || counts[prog.HintNonStack] == 0 {
		t.Errorf("oracle produced no classifications: %v", counts)
	}
	// Out-of-range indices are harmless.
	if oracle(-1) != prog.HintNone || oracle(1<<20) != prog.HintNone {
		t.Error("oracle out-of-range not HintNone")
	}
}

func TestOracleUnknownForMixedInstruction(t *testing.T) {
	// One static instruction (inside deref()) alternates stack and data.
	pr := run(t, `
int g[8];
int deref(int *p) { return *p; }
int main() {
	int a[8];
	int i;
	int s = 0;
	for (i = 0; i < 8; i++) { g[i] = i; a[i] = i; }
	for (i = 0; i < 8; i++) s += deref(g) + deref(a);
	return s & 255;
}`, 0)
	oracle := pr.Oracle()
	unknown := 0
	for i := range pr.PerInst {
		if oracle(i) == prog.HintUnknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Error("no instruction classified unknown despite region mixing")
	}
}

func TestTruncation(t *testing.T) {
	pr := run(t, threeRegionSrc, 5000)
	if pr.DynInsts != 5000 {
		t.Errorf("truncated run = %d instructions", pr.DynInsts)
	}
}

func TestBurstinessPredicate(t *testing.T) {
	var w WindowStat
	w.Size = 32
	// Clustered accesses: mostly zero with occasional bursts.
	for i := 0; i < 100; i++ {
		w.Regions[region.Heap].Add(0)
	}
	for i := 0; i < 5; i++ {
		w.Regions[region.Heap].Add(20)
	}
	if !w.StrictlyBursty(region.Heap) {
		t.Errorf("clustered distribution not bursty: mean %.2f sd %.2f",
			w.Mean(region.Heap), w.StdDev(region.Heap))
	}
	// Steady accesses: constant occupancy.
	for i := 0; i < 100; i++ {
		w.Regions[region.Data].Add(10)
	}
	if w.StrictlyBursty(region.Data) {
		t.Error("constant distribution reported bursty")
	}
}

// BenchmarkProfile is the profile pass of one workload: Table 1,
// Figure 2, Table 2 and the LVC stack stream in one functional run.
func BenchmarkProfile(b *testing.B) {
	w, _ := workload.ByName("130.li")
	p, err := w.Compile(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), p, 100_000, nil); err != nil {
			b.Fatal(err)
		}
	}
}
