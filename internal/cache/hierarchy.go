package cache

import (
	"fmt"

	"repro/internal/core"
)

// PartitionConfig describes one first-level partition: a plain cache
// Config (geometry, ports, hit latency) under a partition name. The
// paper's L1D/LVC pair is the two-partition instance; the Bicameral
// Cache's pattern split is another.
type PartitionConfig = Config

// Steering policy names. ParsePolicy resolves them.
const (
	// SteerRegion reproduces the paper's split exactly: accesses whose
	// actual region is stack go to partition 1 (the LVC), everything
	// else to partition 0. Requires at least two partitions.
	SteerRegion = "region"
	// SteerPattern is the Bicameral-style access-pattern split:
	// "regular" references — addresses manifest in the addressing mode,
	// or floating-point values (strided array traffic) — go to
	// partition 1, irregular ones to partition 0.
	SteerPattern = "pattern"
	// SteerPCHash spreads accesses across all partitions by a hash of
	// the static instruction index (the trace's PC surrogate).
	SteerPCHash = "pchash"
	// SteerNone sends everything to partition 0 — the unified cache.
	SteerNone = "none"
)

// SteerPolicies lists the policy names ParsePolicy accepts.
var SteerPolicies = []string{SteerRegion, SteerPattern, SteerPCHash, SteerNone}

// Policy is a steering policy resolved for a partition count. Every
// policy is a pure function of the access: the simulator steers once
// per granted access, and replays must reproduce the same sequence.
type Policy uint8

const (
	policyNone Policy = iota
	policyRegion
	policyPattern
	policyPCHash
)

// ParsePolicy resolves a policy name for nparts partitions. Policies
// that split two ways (region, pattern) require nparts >= 2; pchash
// uses all partitions; none works with any count.
func ParsePolicy(policy string, nparts int) (Policy, error) {
	if nparts <= 0 {
		return 0, fmt.Errorf("cache: steering over %d partitions", nparts)
	}
	switch policy {
	case SteerNone:
		return policyNone, nil
	case SteerRegion, SteerPattern:
		if nparts < 2 {
			return 0, fmt.Errorf("cache: %s steering needs at least 2 partitions, have %d", policy, nparts)
		}
		if policy == SteerRegion {
			return policyRegion, nil
		}
		return policyPattern, nil
	case SteerPCHash:
		return policyPCHash, nil
	}
	return 0, fmt.Errorf("cache: unknown steering policy %q (have %v)", policy, SteerPolicies)
}

// Hierarchy levels, as reported by Hierarchy.Access.
const (
	LevelFirst = iota // satisfied by the addressed partition
	LevelL2           // missed the partition, hit the shared L2
	LevelMem          // missed both; filled from memory
)

// HierarchyConfig assembles a first-level partitioned cache in front
// of one shared L2.
type HierarchyConfig struct {
	// Partitions are the first-level caches, in partition order. At
	// least one is required; every config must validate.
	Partitions []PartitionConfig
	// L2 is the shared second level; the zero value means the paper's
	// L2Config.
	L2 Config
	// Policy names the steering policy; empty sends everything to
	// partition 0 (SteerNone).
	Policy string
}

// Hierarchy is a first-level cache split into N steered partitions
// backed by one shared L2. Timing (latencies, per-cycle port
// arbitration) stays with the pipeline model, exactly as for a single
// Cache; the hierarchy answers hit levels and tracks per-partition
// statistics.
type Hierarchy struct {
	parts  []*Cache
	l2     *Cache
	policy Policy
}

// NewHierarchy builds the partitioned hierarchy; every partition
// configuration (and the L2) must validate.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one partition")
	}
	h := &Hierarchy{parts: make([]*Cache, len(cfg.Partitions))}
	if cfg.Policy != "" {
		p, err := ParsePolicy(cfg.Policy, len(cfg.Partitions))
		if err != nil {
			return nil, err
		}
		h.policy = p
	}
	for i, pc := range cfg.Partitions {
		c, err := New(pc)
		if err != nil {
			return nil, fmt.Errorf("cache: partition %d: %w", i, err)
		}
		h.parts[i] = c
	}
	l2cfg := cfg.L2
	if l2cfg == (Config{}) {
		l2cfg = L2Config()
	}
	l2, err := New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	h.l2 = l2
	return h, nil
}

// NumPartitions reports the first-level partition count.
func (h *Hierarchy) NumPartitions() int { return len(h.parts) }

// Partition returns the i-th first-level cache.
func (h *Hierarchy) Partition(i int) *Cache { return h.parts[i] }

// L2 returns the shared second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Steer picks the partition for one access under the hierarchy's
// policy. ParsePolicy checked the partition count, so every answer is
// in range.
func (h *Hierarchy) Steer(a core.AccessInfo) int {
	switch h.policy {
	case policyRegion:
		if a.Stack {
			return 1
		}
	case policyPattern:
		if a.EarlyAddr || a.IsFP {
			return 1
		}
	case policyPCHash:
		// Fibonacci hashing of the static index: cheap, stateless, and
		// well spread even for the small dense index spaces of the
		// workloads.
		return int(uint32(a.Index) * 2654435761 % uint32(len(h.parts)))
	}
	return 0
}

// Access charges partition pi with one access and, on a first-level
// miss, the shared L2. It reports the level that satisfied the access
// (LevelFirst, LevelL2 or LevelMem) — the same charging order the
// fixed L1/LVC/L2 trio used, so a two-partition region-steered
// hierarchy is access-for-access identical to it.
func (h *Hierarchy) Access(pi int, addr uint32, write bool) int {
	if hit, _ := h.parts[pi].Access(addr, write); hit {
		return LevelFirst
	}
	if hit, _ := h.l2.Access(addr, write); hit {
		return LevelL2
	}
	return LevelMem
}
