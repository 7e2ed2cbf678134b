// Package profile implements the paper's §3 profiling methodology: it
// executes a program on the functional simulator and collects, per
// static memory instruction, the set of regions it accesses (Figure 2),
// per-benchmark dynamic instruction mixes (Table 1), sliding-window
// per-region access distributions (Table 2), the hit rate of the stack
// reference stream in the Local Variable Cache (§3.3), and the profile
// oracle the paper used as its upper-bound "compiler information"
// (§3.5.2).
package profile

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/stats"
	"repro/internal/vm"
)

// WindowSizes are the sliding-window lengths of Table 2.
var WindowSizes = []int{32, 64}

// InstProfile accumulates per-static-instruction facts.
type InstProfile struct {
	Regions region.Set // regions accessed at run time
	Count   uint64     // dynamic executions that accessed memory
}

// WindowStat is the Table 2 cell: the distribution of per-region access
// counts in the trailing window.
type WindowStat struct {
	Size    int
	Regions [region.Count]stats.Running
}

// Mean reports the average number of accesses to r in the window.
func (w *WindowStat) Mean(r region.Region) float64 { return w.Regions[r].Mean() }

// StdDev reports the standard deviation of accesses to r in the window.
func (w *WindowStat) StdDev(r region.Region) float64 { return w.Regions[r].StdDev() }

// StrictlyBursty reports the paper's burstiness criterion: accesses to
// a region are strictly bursty when the window mean is smaller than the
// standard deviation.
func (w *WindowStat) StrictlyBursty(r region.Region) bool {
	return w.Mean(r) < w.StdDev(r)
}

// Profile is the result of profiling one program run.
type Profile struct {
	Name      string
	DynInsts  uint64
	DynLoads  uint64
	DynStores uint64
	ExitCode  int

	// PerInst is indexed by static instruction index; entries for
	// non-memory or never-executed instructions stay zero.
	PerInst []InstProfile

	// RegionRefs counts dynamic references per region.
	RegionRefs [region.Count]uint64

	// Windows holds one WindowStat per entry in WindowSizes.
	Windows []WindowStat

	// LVC counts the stack references through a 4 KB direct-mapped
	// Local Variable Cache (cache.LVCConfig).
	LVC cache.Stats
}

// Run profiles program p, truncated at maxInsts instructions (0 uses
// the VM default); out receives program output (nil discards it).
// Cancelling ctx (or its watchdog deadline) aborts the run with a
// vm.FaultError wrapping the context's error.
func Run(ctx context.Context, p *prog.Program, maxInsts uint64, out io.Writer) (*Profile, error) {
	m, err := vm.New(vm.Config{Program: p, Out: out})
	if err != nil {
		return nil, err
	}
	lvc, err := cache.New(cache.LVCConfig(1))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	pr := &Profile{
		Name:    p.Name,
		PerInst: make([]InstProfile, len(p.Text)),
	}
	type winTrack struct {
		ws   [region.Count]*stats.Window
		stat *WindowStat
	}
	tracks := make([]winTrack, len(WindowSizes))
	pr.Windows = make([]WindowStat, len(WindowSizes))
	for i, size := range WindowSizes {
		pr.Windows[i].Size = size
		tracks[i].stat = &pr.Windows[i]
		for r := 0; r < region.Count; r++ {
			w, err := stats.NewWindow(size)
			if err != nil {
				return nil, fmt.Errorf("profile: %w", err)
			}
			tracks[i].ws[r] = w
		}
	}

	observe := func(ev vm.Event) {
		pr.DynInsts++
		isMem := ev.Inst.IsMem()
		if isMem {
			if ev.Inst.IsLoad() {
				pr.DynLoads++
			} else {
				pr.DynStores++
			}
			ip := &pr.PerInst[ev.Index]
			ip.Regions = ip.Regions.Add(ev.Region)
			ip.Count++
			pr.RegionRefs[ev.Region]++
			if ev.Region == region.Stack {
				lvc.Access(ev.MemAddr, ev.Inst.IsStore())
			}
		}
		for ti := range tracks {
			tr := &tracks[ti]
			for r := 0; r < region.Count; r++ {
				hit := isMem && ev.Region == region.Region(r)
				n := tr.ws[r].Step(hit)
				if tr.ws[r].Warm() {
					tr.stat.Regions[r].Add(float64(n))
				}
			}
		}
	}
	if err := m.Run(ctx, maxInsts, observe); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pr.ExitCode = m.ExitCode()
	pr.LVC = lvc.Stats()
	return pr, nil
}

// DynRefs reports the total dynamic memory references.
func (p *Profile) DynRefs() uint64 { return p.DynLoads + p.DynStores }

// LoadPct and StorePct report the Table 1 percentages (relative to the
// total instruction count).
func (p *Profile) LoadPct() float64 { return pct(p.DynLoads, p.DynInsts) }

// StorePct reports the store share of all dynamic instructions.
func (p *Profile) StorePct() float64 { return pct(p.DynStores, p.DynInsts) }

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// ClassBreakdown is Figure 2's data for one program: static instruction
// counts and dynamic reference counts per region-set class.
type ClassBreakdown struct {
	StaticByClass map[region.Set]int
	DynByClass    map[region.Set]uint64
	StaticTotal   int
	DynTotal      uint64
}

// Classes computes the Figure 2 breakdown over static instructions that
// accessed memory at least once.
func (p *Profile) Classes() ClassBreakdown {
	b := ClassBreakdown{
		StaticByClass: make(map[region.Set]int),
		DynByClass:    make(map[region.Set]uint64),
	}
	for i := range p.PerInst {
		ip := &p.PerInst[i]
		if ip.Regions == 0 {
			continue
		}
		b.StaticByClass[ip.Regions]++
		b.DynByClass[ip.Regions] += ip.Count
		b.StaticTotal++
		b.DynTotal += ip.Count
	}
	return b
}

// MultiRegionStaticPct reports the share of static memory instructions
// that touched more than one region (paper: 1.8-1.9% on average).
func (b ClassBreakdown) MultiRegionStaticPct() float64 {
	multi := 0
	for set, n := range b.StaticByClass {
		if !set.Single() {
			multi += n
		}
	}
	if b.StaticTotal == 0 {
		return 0
	}
	return 100 * float64(multi) / float64(b.StaticTotal)
}

// MultiRegionDynPct reports the share of dynamic references issued by
// multi-region static instructions (paper: 0%-9.6%).
func (b ClassBreakdown) MultiRegionDynPct() float64 {
	var multi uint64
	for set, n := range b.DynByClass {
		if !set.Single() {
			multi += n
		}
	}
	if b.DynTotal == 0 {
		return 0
	}
	return 100 * float64(multi) / float64(b.DynTotal)
}

// StackOnlyStaticPct reports the share of static memory instructions in
// the "S" class (paper: over 50% on average).
func (b ClassBreakdown) StackOnlyStaticPct() float64 {
	if b.StaticTotal == 0 {
		return 0
	}
	sOnly := b.StaticByClass[region.Set(0).Add(region.Stack)]
	return 100 * float64(sOnly) / float64(b.StaticTotal)
}

// Oracle builds the paper's §3.5.2 profile-based hint source: a static
// instruction is tagged stack or non-stack when the profile shows it
// never mixed the two, and unknown otherwise. This is the "very
// accurate compiler analysis (upper bound)" variant.
func (p *Profile) Oracle() func(index int) prog.Hint {
	hints := make([]prog.Hint, len(p.PerInst))
	stackSet := region.Set(0).Add(region.Stack)
	for i := range p.PerInst {
		set := p.PerInst[i].Regions
		switch {
		case set == 0:
			hints[i] = prog.HintNone
		case set == stackSet:
			hints[i] = prog.HintStack
		case !set.Has(region.Stack):
			hints[i] = prog.HintNonStack
		default:
			hints[i] = prog.HintUnknown
		}
	}
	return func(index int) prog.Hint {
		if index < 0 || index >= len(hints) {
			return prog.HintNone
		}
		return hints[index]
	}
}
