// Package cache models the set-associative, write-back, write-allocate
// caches of the paper's memory hierarchy as a composable partitioned
// first level (Hierarchy: N steered partitions over one shared L2).
// The paper's configuration — a multi-ported L1 data cache plus the
// small direct-mapped Local Variable Cache (LVC), region-steered — is
// the two-partition instance. Timing (latencies, per-cycle port
// arbitration) belongs to the pipeline model in internal/cpu; this
// package answers hit/miss and tracks contents and statistics.
package cache

import (
	"fmt"

	"repro/internal/obs"
)

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int // 1 = direct mapped
	HitLatency int // cycles, used by the timing model
	Ports      int // simultaneous accesses per cycle, used by the timing model
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes || lines%c.Assoc != 0 {
		return fmt.Errorf("cache %q: size %d not divisible into %d-way sets of %d-byte lines",
			c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	if c.Ports <= 0 {
		return fmt.Errorf("cache %q: %d ports", c.Name, c.Ports)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("cache %q: %d-cycle hit latency", c.Name, c.HitLatency)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate reports hits/accesses in [0,1].
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Publish copies the counters into r under the given labels. The caller
// labels which cache this is (conventionally labels["cache"]); call it
// once when a run finishes.
func (s Stats) Publish(r *obs.Registry, labels obs.Labels) {
	if r == nil {
		return
	}
	r.Counter("cache_accesses_total", "cache accesses", labels).Add(s.Accesses)
	r.Counter("cache_hits_total", "cache hits", labels).Add(s.Hits)
	r.Counter("cache_misses_total", "cache misses", labels).Add(s.Misses)
	r.Counter("cache_writebacks_total", "dirty lines evicted toward the next level", labels).Add(s.Writebacks)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is one cache instance. Its lines live in one slice, set s
// occupying lines[s*assoc : (s+1)*assoc] in way order.
type Cache struct {
	cfg      Config
	lines    []line
	assoc    uint32
	setShift uint // log2 of the line size
	tagShift uint // setShift plus log2 of the set count
	setMask  uint32
	clock    uint64
	stats    Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Assoc),
		assoc:   uint32(cfg.Assoc),
		setMask: uint32(nsets - 1),
	}
	c.setShift = log2(uint32(cfg.LineBytes))
	c.tagShift = c.setShift + log2(uint32(nsets))
	return c, nil
}

// set returns the ways of the set addr maps to, and addr's tag.
func (c *Cache) set(addr uint32) ([]line, uint32) {
	base := ((addr >> c.setShift) & c.setMask) * c.assoc
	return c.lines[base : base+c.assoc], addr >> c.tagShift
}

// Config reports the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats reports the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Access performs a read or write of one address. It returns whether
// the access hit, and whether the fill evicted a dirty line (a
// writeback toward the next level). Writes allocate on miss.
func (c *Cache) Access(addr uint32, write bool) (hit, writeback bool) {
	c.clock++
	c.stats.Accesses++
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			return true, false
		}
	}
	c.stats.Misses++
	// Fill: choose an invalid way, else the LRU way.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	writeback = set[victim].valid && set[victim].dirty
	if writeback {
		c.stats.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, used: c.clock}
	return false, writeback
}

// Probe reports whether addr is present without touching LRU state or
// statistics.
func (c *Cache) Probe(addr uint32) bool {
	set, tag := c.set(addr)
	for _, l := range set {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and reports how many were dirty.
func (c *Cache) Flush() int {
	dirty := 0
	for i, l := range c.lines {
		if l.valid && l.dirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}

func log2(v uint32) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Table 4 configurations.

// L1Config is the paper's primary data cache: 64 KB, 2-way, 32-byte
// lines, with the given port count and hit latency.
func L1Config(ports, latency int) Config {
	return Config{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2,
		HitLatency: latency, Ports: ports}
}

// L2Config is the 512 KB 4-way second-level cache (12-cycle access).
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 4,
		HitLatency: 12, Ports: 1}
}

// LVCConfig is the 4 KB direct-mapped, 1-cycle Local Variable Cache.
func LVCConfig(ports int) Config {
	return Config{Name: "LVC", SizeBytes: 4 << 10, LineBytes: 32, Assoc: 1,
		HitLatency: 1, Ports: ports}
}
