package cpu

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/minicc"
	"repro/internal/workload"
)

func trace(t *testing.T, src string) *Trace {
	t.Helper()
	p, err := minicc.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := BuildTrace(p, TraceOptions{})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr
}

const loopSrc = `
int a[256];
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 256; i++) a[i] = i;
	for (i = 0; i < 256; i++) s += a[i] * 3;
	return s & 255;
}`

func TestBuildTraceBasics(t *testing.T) {
	tr := trace(t, loopSrc)
	if len(tr.Insts) == 0 {
		t.Fatal("empty trace")
	}
	mems, loads, stores := 0, 0, 0
	for i := range tr.Insts {
		ti := &tr.Insts[i]
		if ti.IsMem() {
			mems++
			if ti.IsLoad() {
				loads++
			} else {
				stores++
			}
			if ti.Addr == 0 {
				t.Fatal("memory instruction with zero address")
			}
		}
	}
	if mems == 0 || loads == 0 || stores == 0 {
		t.Fatalf("mems=%d loads=%d stores=%d", mems, loads, stores)
	}
	if tr.PredictorStats.Total != uint64(mems) {
		t.Errorf("classifier saw %d refs, trace has %d", tr.PredictorStats.Total, mems)
	}
}

func TestSimulateCompletes(t *testing.T) {
	tr := trace(t, loopSrc)
	for _, cfg := range Figure8Configs() {
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Insts != uint64(len(tr.Insts)) {
			t.Errorf("%s: committed %d of %d", cfg.Name, res.Insts, len(tr.Insts))
		}
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", cfg.Name)
		}
		ipc := res.IPC()
		if ipc <= 0 || ipc > float64(cfg.IssueWidth) {
			t.Errorf("%s: implausible IPC %.2f", cfg.Name, ipc)
		}
	}
}

// More ports must never hurt: cycles((N+0)) >= cycles((N'+0)) for N'>N.
func TestMorePortsMonotone(t *testing.T) {
	tr := trace(t, loopSrc)
	prev := uint64(0)
	for i, ports := range []int{1, 2, 4, 16} {
		cfg := Conventional(ports, 2)
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Cycles > prev {
			t.Errorf("%d ports slower than fewer ports: %d > %d cycles", ports, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// Dependence chains must serialize: a chain of dependent multiplies
// cannot run at high IPC.
func TestDependenceChainSerializes(t *testing.T) {
	chain := trace(t, `
int main() {
	int x = 3;
	int i;
	for (i = 0; i < 2000; i++) x = x * 7 + 1;
	return x & 255;
}`)
	res, err := Simulate(chain, Conventional(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Each iteration carries mul(6)+add on the critical path; IPC must
	// reflect a long dependence chain, far below the issue width.
	if ipc := res.IPC(); ipc > 2.0 {
		t.Errorf("dependent chain IPC %.2f, expected serialization", ipc)
	}
}

func TestValuePredictorBreaksChains(t *testing.T) {
	// A strided accumulator is exactly what the stride predictor eats.
	src := `
int main() {
	int x = 0;
	int i;
	for (i = 0; i < 4000; i++) x = x + 3;
	return x & 255;
}`
	p, err := minicc.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	with, err := BuildTrace(p, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := BuildTrace(p, TraceOptions{DisableValuePred: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Conventional(4, 2)
	rw, err := Simulate(with, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Simulate(without, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rw.VPUsed == 0 {
		t.Fatal("value predictor never used on a strided accumulator")
	}
	if rw.Cycles >= ro.Cycles {
		t.Errorf("value prediction did not help: %d vs %d cycles", rw.Cycles, ro.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// Write-then-read of the same stack slot through a pointer forces
	// queue forwarding.
	tr := trace(t, `
int g;
void touch(int *p) {
	*p = *p + 1;
}
int main() {
	int x = 0;
	int i;
	for (i = 0; i < 500; i++) touch(&x);
	g = x;
	return x & 255;
}`)
	res, err := Simulate(tr, Conventional(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwards == 0 {
		t.Error("no store-to-load forwarding observed")
	}
}

func TestDecoupledStatsAndSteering(t *testing.T) {
	w, _ := workload.ByName("vortex")
	p, err := w.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildTrace(p, TraceOptions{MaxInsts: 400_000})
	if err != nil {
		// The budget fault is fine; build a shorter trace instead.
		t.Skipf("trace: %v", err)
	}
	res, err := Simulate(tr, Decoupled(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.LVCStats.Accesses == 0 {
		t.Error("decoupled run never touched the LVC")
	}
	if res.L1Stats.Accesses == 0 {
		t.Error("decoupled run never touched the L1")
	}
	// The steering accuracy is >99%, so mispredicts must be rare.
	if res.ARPTMispredicts*100 > res.LVCStats.Accesses+res.L1Stats.Accesses {
		t.Errorf("implausible misprediction count %d", res.ARPTMispredicts)
	}
}

func TestConfigNames(t *testing.T) {
	cases := map[string]Config{
		"(2+0)":      Conventional(2, 2),
		"(3+0,3cyc)": Conventional(3, 3),
		"(3+3)":      Decoupled(3, 3),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("name = %q, want %q", cfg.Name, want)
		}
	}
	if len(Figure8Configs()) != 8 {
		t.Errorf("Figure8Configs has %d entries, want 8", len(Figure8Configs()))
	}
}

// TestValidatePenalty: a zero mispredict penalty is a machine, a
// negative one is not, whichever constructor builds it.
func TestValidatePenalty(t *testing.T) {
	if err := Decoupled(3, 3).WithPenalty(0).Validate(); err != nil {
		t.Errorf("penalty 0: %v", err)
	}
	if err := Decoupled(3, 3).WithPenalty(-1).Validate(); err == nil {
		t.Error("Validate accepted penalty -1")
	}
	if _, err := Simulate(trace(t, loopSrc), Decoupled(3, 3).WithPenalty(-40)); err == nil {
		t.Error("Simulate ran penalty -40")
	}
	pen := -1
	if _, err := Custom(CustomParams{L1Ports: 3, LVCPorts: 3, Penalty: &pen}); err == nil {
		t.Error("Custom accepted penalty -1")
	}
}

func TestDepRegMapping(t *testing.T) {
	if depReg(isa.Zero, false) != noReg {
		t.Error("$zero should carry no dependence")
	}
	if depReg(isa.T0, false) != int8(isa.T0) {
		t.Error("integer register id")
	}
	if depReg(5, true) != 37 {
		t.Error("fp register id")
	}
}

// TestConcurrentSimulateSharesTrace pins the contract the parallel
// experiment harness depends on: Simulate never mutates its trace, so
// concurrent simulations over one trace are race-free and each yields
// the same result as a solo run.
func TestConcurrentSimulateSharesTrace(t *testing.T) {
	tr := trace(t, loopSrc)
	configs := []Config{Conventional(2, 2), Decoupled(2, 2), Decoupled(3, 3), Conventional(16, 2)}
	want := make([]*Result, len(configs))
	for i, cfg := range configs {
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const rounds = 4
	got := make([]*Result, len(configs)*rounds)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Simulate(tr, configs[i%len(configs)])
			if err != nil {
				t.Errorf("concurrent Simulate: %v", err)
				return
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, res := range got {
		w := want[i%len(configs)]
		if res.Cycles != w.Cycles || res.Insts != w.Insts || res.ARPTMispredicts != w.ARPTMispredicts {
			t.Errorf("%s: concurrent run diverged: cycles %d vs %d, mispredicts %d vs %d",
				res.Config.Name, res.Cycles, w.Cycles, res.ARPTMispredicts, w.ARPTMispredicts)
		}
	}
}
