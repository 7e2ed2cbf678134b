package faultinject

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/prog"
	"repro/internal/workload"
)

const (
	testMaxInsts = 20_000
	testScale    = 1
)

var (
	programsOnce sync.Once
	programsMap  map[string]*prog.Program
	programsErr  error
)

// programs compiles every workload once for the whole test binary.
func programs(t *testing.T) map[string]*prog.Program {
	t.Helper()
	programsOnce.Do(func() {
		programsMap = make(map[string]*prog.Program)
		for _, w := range workload.All() {
			p, err := w.Compile(testScale)
			if err != nil {
				programsErr = err
				return
			}
			programsMap[w.Name] = p
		}
	})
	if programsErr != nil {
		t.Fatal(programsErr)
	}
	return programsMap
}

func TestGoldenRunDeterministic(t *testing.T) {
	p := programs(t)["099.go"]
	a, err := GoldenRun(context.Background(), p, testMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GoldenRun(context.Background(), p, testMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Shape != b.Shape {
		t.Fatalf("golden runs differ:\n%+v\n%+v", a, b)
	}
	if a.Shape.Insts == 0 || a.Shape.MemRefs == 0 {
		t.Fatalf("degenerate golden shape %+v", a.Shape)
	}
}

func TestArchDigestDiff(t *testing.T) {
	g := ArchDigest{Insts: 10, Stream: 1, Regs: 2, Mem: 3, Out: 4, Exit: 0}
	if d := g.Diff(g); d != "" {
		t.Fatalf("equal digests diff = %q", d)
	}
	cases := []struct {
		mutate func(d *ArchDigest)
		want   string
	}{
		{func(d *ArchDigest) { d.Insts = 11 }, "retired"},
		{func(d *ArchDigest) { d.Stream = 9 }, "stream"},
		{func(d *ArchDigest) { d.Regs = 9 }, "register"},
		{func(d *ArchDigest) { d.Mem = 9 }, "memory"},
		{func(d *ArchDigest) { d.Out = 9 }, "output"},
		{func(d *ArchDigest) { d.Exit = 9 }, "exit code"},
	}
	for _, tc := range cases {
		d := g
		tc.mutate(&d)
		if got := d.Diff(g); !strings.Contains(got, tc.want) {
			t.Fatalf("Diff = %q, want it to mention %q", got, tc.want)
		}
	}
}

func TestMemFaultSurfaces(t *testing.T) {
	p := programs(t)["099.go"]
	golden, err := GoldenRun(context.Background(), p, testMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	seq := golden.Shape.Insts / 2
	plan := &Plan{Seed: 1, Shape: golden.Shape,
		Faults: []Fault{{Kind: MemFault, Arg: seq}}}
	rr, err := RunOne(context.Background(), p, testMaxInsts, golden, plan, cpu.Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Survived() {
		t.Fatalf("divergence: %s", rr.Divergence)
	}
	if !rr.Aborted || rr.AbortSeq != seq {
		t.Fatalf("abort = %v at %d, want true at %d", rr.Aborted, rr.AbortSeq, seq)
	}
	if rr.Fired != 1 {
		t.Fatalf("fired = %d, want 1", rr.Fired)
	}
}

func TestForcedMispredictKeepsArchitecture(t *testing.T) {
	p := programs(t)["099.go"]
	golden, err := GoldenRun(context.Background(), p, testMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// Force a burst of mispredictions across the reference stream.
	plan := &Plan{Seed: 2, Shape: golden.Shape}
	for i := uint64(0); i < 50; i++ {
		plan.Faults = append(plan.Faults,
			Fault{Kind: ForceMispredict, Arg: i * (golden.Shape.MemRefs / 50)})
	}
	rr, err := RunOne(context.Background(), p, testMaxInsts, golden, plan, cpu.Decoupled(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Survived() {
		t.Fatalf("divergence under forced mispredictions: %s", rr.Divergence)
	}
	if rr.Aborted {
		t.Fatalf("timing-level faults aborted the run")
	}
	if rr.Recoveries == 0 {
		t.Fatalf("forced mispredictions drove no recoveries")
	}
	if rr.Recoveries != rr.Mispredicts {
		t.Fatalf("recoveries %d != mispredicts %d", rr.Recoveries, rr.Mispredicts)
	}
}

// TestCampaignAcceptance is the PR's acceptance gate: a campaign of
// more than 200 seeded fault runs spread across all twelve workloads
// must produce zero architectural divergences, fire at least one fault
// in ≥95% of runs, and reproduce byte-for-byte from the same seed.
func TestCampaignAcceptance(t *testing.T) {
	progs := programs(t)
	const runsPerWorkload = 18
	cfg := cpu.Decoupled(3, 3)

	var mu sync.Mutex
	first := make(map[string]string)
	totalRuns, totalFired := 0, 0

	var wg sync.WaitGroup
	errs := make(chan error, len(progs))
	for _, w := range workload.All() {
		p := progs[w.Name]
		name := w.Name
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				s, err := RunCampaign(context.Background(), p, name, 1234, runsPerWorkload, 6, testMaxInsts, cfg)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if pass == 0 {
					first[name] = s.String()
					totalRuns += s.Runs
					totalFired += s.Fired
					if !s.Survived() {
						t.Errorf("campaign diverged:\n%s", s)
					}
				} else if got := s.String(); got != first[name] {
					t.Errorf("same-seed campaign not reproducible:\n--- first\n%s--- second\n%s", first[name], got)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if totalRuns < 200 {
		t.Fatalf("campaign too small: %d runs, want >= 200", totalRuns)
	}
	if fired := float64(totalFired) / float64(totalRuns); fired < 0.95 {
		t.Fatalf("only %.1f%% of runs fired a fault, want >= 95%%", 100*fired)
	}
	t.Logf("campaign: %d runs, %d fired (%.1f%%)", totalRuns, totalFired,
		100*float64(totalFired)/float64(totalRuns))
}
