package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/service/journal"
)

// BenchmarkRecover times a warm restart's journal work: journal.Open
// and Recover over a journal of 120 finished four-unit jobs, each unit
// journaled running and then done with a cpu.Result, written once.
func BenchmarkRecover(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "journal")
	jrn, err := journal.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	configs := []string{"(2+0)", "(3+0)", "(2+2,pen4)", "(3+3,pen16)"}
	for i := 1; i <= 120; i++ {
		req := CampaignRequest{MaxInsts: 400_000, Workloads: []string{"130.li"}, Configs: configs}
		reqEnc, _ := json.Marshal(req)
		id := fmt.Sprintf("c%04d", i)
		recs := []journal.Record{{T: journal.TypeJob, Job: id, Tenant: "bench", Req: reqEnc, Version: experiments.StoreVersion}}
		for u, name := range configs {
			cfg, err := ParseConfigName(name)
			if err != nil {
				b.Fatal(err)
			}
			result, _ := json.Marshal(cpu.Result{Config: cfg, Name: "130.li", Cycles: uint64(i*4 + u), Insts: 400_000})
			recs = append(recs,
				journal.Record{T: journal.TypeEvent, Job: id, Seq: 2 * u, Unit: u, State: StateRunning},
				journal.Record{T: journal.TypeEvent, Job: id, Seq: 2*u + 1, Unit: u, State: StateDone, Result: result})
		}
		recs = append(recs, journal.Record{T: journal.TypeEnd, Job: id, State: JobComplete})
		if err := appendSync(jrn, recs...); err != nil {
			b.Fatal(err)
		}
	}
	jrn.Close()
	written, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jrn, err := journal.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Config{CoordinatorOnly: true, Journal: jrn}, nil)
		if rs, err := svc.Recover(); err != nil || rs.Finished != 120 {
			b.Fatalf("Recover = %+v, %v; want 120 finished jobs", rs, err)
		}
		b.StopTimer()
		svc.Drain()
		jrn.Close()
		// Each Open starts a segment of its own; drop it so every
		// iteration replays the same journal.
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		for _, seg := range segs {
			if !slices.Contains(written, seg) {
				os.Remove(seg)
			}
		}
		b.StartTimer()
	}
}
