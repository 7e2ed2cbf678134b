package experiments

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/vm"
	"repro/internal/workload"
)

// referenceLVC is E8 as a standalone functional pass: every stack
// reference of p's run, truncated at limit instructions, goes through a
// fresh 4 KB direct-mapped LVC.
func referenceLVC(p *prog.Program, limit uint64) (cache.Stats, error) {
	m, err := vm.New(vm.Config{Program: p})
	if err != nil {
		return cache.Stats{}, err
	}
	m.MaxInsts = limit + 1
	lvc, err := cache.New(cache.LVCConfig(1))
	if err != nil {
		return cache.Stats{}, err
	}
	for !m.Halted() && m.Seq() < limit {
		ev, err := m.Step()
		if err != nil {
			return cache.Stats{}, err
		}
		if ev.Inst.IsMem() && ev.Region == region.Stack {
			lvc.Access(ev.MemAddr, ev.Inst.IsStore())
		}
	}
	return lvc.Stats(), nil
}

// TestLVCHitRateMatchesReference checks E8's raw counts on every
// workload against the standalone reference pass: the same stack
// references, and the same hit ratio bit for bit, so the same hits.
func TestLVCHitRateMatchesReference(t *testing.T) {
	r := NewRunner()
	r.MaxInsts = 20_000
	r.Workloads = workload.All()
	rows, err := r.LVCHitRate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.Workloads) {
		t.Fatalf("%d rows for %d workloads", len(rows), len(r.Workloads))
	}
	for i, w := range r.Workloads {
		p, err := r.Program(w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceLVC(p, r.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		got := rows[i]
		if got.Name != w.Name || got.StackRefs != want.Accesses || got.HitRate != want.HitRate() {
			t.Errorf("%s: row %s accesses=%d hit rate=%v, reference accesses=%d hits=%d (hit rate %v)",
				w.Name, got.Name, got.StackRefs, got.HitRate, want.Accesses, want.Hits, want.HitRate())
		}
		if want.Accesses == 0 {
			t.Errorf("%s: no stack references in %d instructions", w.Name, r.MaxInsts)
		}
	}
}
