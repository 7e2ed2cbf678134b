package cache

import (
	"testing"

	"repro/internal/core"
)

// splitmix64 is the seeded stream generator for the property tests:
// deterministic, well-mixed, no global rand state.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4b74f9a57f4b7
	return z ^ (z >> 31)
}

// TestHierarchyMatchesSeparateCaches is the refactor's load-bearing
// property: a 2-partition region-steered Hierarchy must be
// access-for-access identical — hit/miss, writebacks, LRU victim
// choice, final statistics — to the separate L1Config/LVCConfig caches
// the simulator used to instantiate directly.
func TestHierarchyMatchesSeparateCaches(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		h, err := NewHierarchy(HierarchyConfig{
			Partitions: []PartitionConfig{L1Config(2, 2), LVCConfig(2)},
			Policy:     SteerRegion,
		})
		if err != nil {
			t.Fatal(err)
		}
		l1 := mustNew(L1Config(2, 2))
		lvc := mustNew(LVCConfig(2))
		l2 := mustNew(L2Config())

		rng := splitmix64(seed)
		for i := 0; i < 20000; i++ {
			r := rng.next()
			// Small address spaces so both caches see real conflict
			// misses and dirty evictions; stack addresses high, heap low,
			// matching the paper's layout.
			stack := r&1 == 1
			var addr uint32
			if stack {
				addr = 0x7fff0000 | uint32(r>>8)&0x3fff
			} else {
				addr = 0x10000000 | uint32(r>>8)&0x1ffff
			}
			write := r&2 == 2
			info := core.AccessInfo{Addr: addr, Stack: stack}

			pi := h.Steer(info)
			wantPi := 0
			if stack {
				wantPi = 1
			}
			if pi != wantPi {
				t.Fatalf("seed %d access %d: steered to %d, want %d", seed, i, pi, wantPi)
			}

			// Reference model: the fixed trio's charging order.
			var refFirst *Cache
			if stack {
				refFirst = lvc
			} else {
				refFirst = l1
			}
			refHit, refWB := refFirst.Access(addr, write)
			refLevel := LevelFirst
			if !refHit {
				l2Hit, _ := l2.Access(addr, write)
				if l2Hit {
					refLevel = LevelL2
				} else {
					refLevel = LevelMem
				}
			}

			level := h.Access(pi, addr, write)
			if level != refLevel {
				t.Fatalf("seed %d access %d (addr %#x write %v): level %d, want %d",
					seed, i, addr, write, level, refLevel)
			}
			part := h.Partition(pi)
			if got := part.Stats(); got.Writebacks != refFirst.Stats().Writebacks {
				t.Fatalf("seed %d access %d: partition writebacks %d, want %d (wb=%v)",
					seed, i, got.Writebacks, refFirst.Stats().Writebacks, refWB)
			}
			// LRU/victim state must track exactly: probe the address the
			// reference just filled or hit.
			if part.Probe(addr) != refFirst.Probe(addr) {
				t.Fatalf("seed %d access %d: presence of %#x diverged", seed, i, addr)
			}
		}

		if h.Partition(0).Stats() != l1.Stats() {
			t.Errorf("seed %d: partition 0 stats %+v, want %+v", seed, h.Partition(0).Stats(), l1.Stats())
		}
		if h.Partition(1).Stats() != lvc.Stats() {
			t.Errorf("seed %d: partition 1 stats %+v, want %+v", seed, h.Partition(1).Stats(), lvc.Stats())
		}
		if h.L2().Stats() != l2.Stats() {
			t.Errorf("seed %d: L2 stats %+v, want %+v", seed, h.L2().Stats(), l2.Stats())
		}
	}
}

func TestNewSteerPolicies(t *testing.T) {
	cases := []struct {
		policy string
		nparts int
		ok     bool
	}{
		{SteerRegion, 2, true},
		{SteerRegion, 1, false},
		{SteerPattern, 2, true},
		{SteerPattern, 1, false},
		{SteerPCHash, 1, true},
		{SteerPCHash, 4, true},
		{SteerNone, 1, true},
		{SteerNone, 3, true},
		{"bogus", 2, false},
		{SteerNone, 0, false},
	}
	for _, c := range cases {
		_, err := ParsePolicy(c.policy, c.nparts)
		if (err == nil) != c.ok {
			t.Errorf("ParsePolicy(%q, %d): err = %v, want ok=%v", c.policy, c.nparts, err, c.ok)
		}
	}
}

// steerer is a hierarchy of nparts L1 partitions steered by policy.
func steerer(t *testing.T, policy string, nparts int) func(core.AccessInfo) int {
	t.Helper()
	parts := make([]PartitionConfig, nparts)
	for i := range parts {
		parts[i] = L1Config(2, 2)
	}
	h, err := NewHierarchy(HierarchyConfig{Partitions: parts, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return h.Steer
}

func TestSteerSemantics(t *testing.T) {
	region := steerer(t, SteerRegion, 2)
	if region(core.AccessInfo{Stack: true}) != 1 || region(core.AccessInfo{}) != 0 {
		t.Error("region steering does not split stack/heap")
	}
	pattern := steerer(t, SteerPattern, 2)
	if pattern(core.AccessInfo{EarlyAddr: true}) != 1 ||
		pattern(core.AccessInfo{IsFP: true}) != 1 ||
		pattern(core.AccessInfo{}) != 0 {
		t.Error("pattern steering does not split regular/irregular")
	}
	pchash := steerer(t, SteerPCHash, 4)
	seen := map[int]bool{}
	for i := int32(0); i < 64; i++ {
		pi := pchash(core.AccessInfo{Index: i})
		if pi < 0 || pi >= 4 {
			t.Fatalf("pchash(%d) = %d out of range", i, pi)
		}
		seen[pi] = true
	}
	if len(seen) != 4 {
		t.Errorf("pchash hit %d of 4 partitions over 64 indices", len(seen))
	}
	// Determinism: same index, same partition.
	for i := int32(0); i < 8; i++ {
		if pchash(core.AccessInfo{Index: i}) != pchash(core.AccessInfo{Index: i}) {
			t.Fatal("pchash not deterministic")
		}
	}
}

func TestHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(HierarchyConfig{}); err == nil {
		t.Error("empty hierarchy validated")
	}
	if _, err := NewHierarchy(HierarchyConfig{
		Partitions: []PartitionConfig{{Name: "bad", SizeBytes: 128, LineBytes: 16, Assoc: 2}},
	}); err == nil {
		t.Error("portless partition validated")
	}
	if _, err := NewHierarchy(HierarchyConfig{
		Partitions: []PartitionConfig{L1Config(2, 2)},
		L2:         Config{Name: "badl2", SizeBytes: 96, LineBytes: 16, Assoc: 2, HitLatency: 12, Ports: 1},
	}); err == nil {
		t.Error("bad L2 validated")
	}
	for _, policy := range []string{SteerRegion, "bogus"} {
		if _, err := NewHierarchy(HierarchyConfig{
			Partitions: []PartitionConfig{L1Config(2, 2)}, Policy: policy,
		}); err == nil {
			t.Errorf("policy %q over one partition validated", policy)
		}
	}
	h, err := NewHierarchy(HierarchyConfig{Partitions: []PartitionConfig{L1Config(2, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if h.L2().Config() != L2Config() {
		t.Errorf("default L2 = %+v, want L2Config", h.L2().Config())
	}
	if h.NumPartitions() != 1 {
		t.Errorf("NumPartitions = %d", h.NumPartitions())
	}
	// No policy means unified: everything to partition 0.
	if pi := h.Steer(core.AccessInfo{Stack: true}); pi != 0 {
		t.Errorf("the default policy sent an access to partition %d", pi)
	}
}

// BenchmarkNewHierarchy builds the paper's L1+LVC+L2 hierarchy, the
// cache set-up every timing simulation pays before its first cycle.
func BenchmarkNewHierarchy(b *testing.B) {
	cfg := HierarchyConfig{Partitions: []PartitionConfig{L1Config(2, 2), LVCConfig(2)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewHierarchy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
