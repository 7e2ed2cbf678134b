package service

import (
	"fmt"
	"testing"
)

// TestUnitKeysPinned pins the unit keys of a grid shorthand and of a
// faultcampaign unit to the bytes fmt rendered them as, and checks
// them against that rendering.
func TestUnitKeysPinned(t *testing.T) {
	specs, err := expand(CampaignRequest{
		Workloads: []string{"li", "go"},
		Configs:   []string{"(2+0)", "(3+3,lvc8K,pen4)", "(2+2,3cyc,pattern)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		c20  = "{Name:(2+0) IssueWidth:16 ROBSize:256 LSQSize:128 LVAQSize:0 Partitions:[{Name:L1D SizeBytes:65536 LineBytes:32 Assoc:2 HitLatency:2 Ports:2}] SteerPolicy: IntALU:16 FPALU:16 IntMulDiv:4 FPMulDiv:4 MispredictPenalty:1 FastForward:false}"
		c33  = "{Name:(3+3,lvc8K,pen4) IssueWidth:16 ROBSize:256 LSQSize:96 LVAQSize:96 Partitions:[{Name:L1D SizeBytes:65536 LineBytes:32 Assoc:2 HitLatency:2 Ports:3} {Name:LVC SizeBytes:8192 LineBytes:32 Assoc:1 HitLatency:1 Ports:3}] SteerPolicy: IntALU:16 FPALU:16 IntMulDiv:4 FPMulDiv:4 MispredictPenalty:4 FastForward:true}"
		c22  = "{Name:(2+2,3cyc,pattern) IssueWidth:16 ROBSize:256 LSQSize:96 LVAQSize:96 Partitions:[{Name:L1D SizeBytes:65536 LineBytes:32 Assoc:2 HitLatency:3 Ports:2} {Name:LVC SizeBytes:4096 LineBytes:32 Assoc:1 HitLatency:1 Ports:2}] SteerPolicy:pattern IntALU:16 FPALU:16 IntMulDiv:4 FPMulDiv:4 MispredictPenalty:1 FastForward:true}"
		head = "|scale=3|n=250000|seed=0|runs=0|faults=0|arpt=0|"
	)
	want := []string{
		"simulate|130.li" + head + c20,
		"simulate|130.li" + head + c33,
		"simulate|130.li" + head + c22,
		"simulate|099.go" + head + c20,
		"simulate|099.go" + head + c33,
		"simulate|099.go" + head + c22,
	}
	if len(specs) != len(want) {
		t.Fatalf("%d units, want %d", len(specs), len(want))
	}
	for i, u := range specs {
		if got := u.key(3, 250_000); got != want[i] {
			t.Errorf("unit %d key\n got %s\nwant %s", i, got, want[i])
		}
	}
	fc := UnitSpec{Kind: KindFaultCampaign, Workload: "130.li", Seed: 7, Runs: 5, Faults: 2}
	if got, want := fc.key(0, 0), "faultcampaign|130.li|scale=0|n=0|seed=7|runs=5|faults=2|arpt=0|"; got != want {
		t.Errorf("faultcampaign key = %s, want %s", got, want)
	}
	fc.Config, fc.ARPT = specs[1].Config, 64
	want1 := fmt.Sprintf("%s|%s|scale=%d|n=%d|seed=%d|runs=%d|faults=%d|arpt=%d|%s",
		fc.Kind, fc.Workload, -1, uint64(1<<64-1), fc.Seed, fc.Runs, fc.Faults, fc.ARPT, fc.Config.Key())
	if got := fc.key(-1, 1<<64-1); got != want1 {
		t.Errorf("key = %s, want fmt's %s", got, want1)
	}
}
