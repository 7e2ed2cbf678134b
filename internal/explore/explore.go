// Package explore is the design-space explorer behind arlexplore: a
// seeded Pareto search over a declarative grid of partitioned-cache
// machine configurations. Every point runs through the shared
// experiments.Runner — store-memoized, retried, breaker-guarded — so a
// SIGKILLed sweep resumed with -resume recomputes only the missing
// points and reassembles a byte-identical frontier, and frontier
// campaigns dedupe against plain simulation campaigns through the same
// artifact store.
package explore

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/detrand"
	"repro/internal/experiments"
)

// FrontierSchema names the ranked-frontier artifact format.
const FrontierSchema = "arl-frontier/v1"

// Grid declares the parameter space: the cross product of every listed
// dimension. Empty dimensions mean the paper's defaults. Conventional
// points (LVC ports 0) collapse their LVC, steering, ARPT and penalty
// dimensions — a machine without a second partition has none of them —
// so each (N+0) appears exactly once however large those lists are.
type Grid struct {
	L1Ports     []int  `json:"l1_ports"`
	LVCPorts    []int  `json:"lvc_ports,omitempty"`    // 0 = conventional, no LVC
	LVCSizeKB   []int  `json:"lvc_size_kb,omitempty"`  // empty = {4}
	ARPTEntries []int  `json:"arpt_entries,omitempty"` // empty = {0}: pipeline default
	Penalties   []int  `json:"penalties,omitempty"`    // empty = {1}
	Steer       string `json:"steer,omitempty"`        // "" = region
	// MaxPoints caps the sweep with a seeded uniform sample of the full
	// cross product (canonical order restored after sampling). The
	// frontier artifact records how many points the cap dropped.
	MaxPoints int `json:"max_points,omitempty"`
}

// Point is one design point: a machine configuration plus the ARPT
// size its trace is built with. Name extends the canonical config name
// with an "@arptN" suffix for non-default ARPT sizes.
type Point struct {
	Name        string     `json:"name"`
	ARPTEntries int        `json:"arpt_entries,omitempty"`
	Config      cpu.Config `json:"-"`
}

// Enumerate expands the grid into design points in canonical order,
// applying the MaxPoints seeded sample. It reports the points kept and
// how many the cap dropped.
func (g Grid) Enumerate(seed uint64) ([]Point, int, error) {
	if len(g.L1Ports) == 0 {
		return nil, 0, fmt.Errorf("explore: grid has no l1_ports dimension")
	}
	lvcPorts := g.LVCPorts
	if len(lvcPorts) == 0 {
		lvcPorts = []int{0}
	}
	sizes := g.LVCSizeKB
	if len(sizes) == 0 {
		sizes = []int{4}
	}
	arpts := g.ARPTEntries
	if len(arpts) == 0 {
		arpts = []int{0}
	}
	pens := g.Penalties
	if len(pens) == 0 {
		pens = []int{1}
	}
	seen := map[string]bool{}
	var pts []Point
	for _, n := range g.L1Ports {
		for _, m := range lvcPorts {
			for _, kb := range sizes {
				for _, entries := range arpts {
					for _, pen := range pens {
						p := cpu.CustomParams{
							L1Ports: n, LVCPorts: m, LVCSizeKB: kb,
							Steer: g.Steer, Penalty: &pen, ARPTEntries: entries,
						}
						if m == 0 {
							// No second partition: nothing to size, steer
							// toward, or mispredict into.
							p.LVCSizeKB, p.Steer, p.Penalty, p.ARPTEntries = 0, "", nil, 0
						}
						cfg, err := cpu.Custom(p)
						if err != nil {
							return nil, 0, fmt.Errorf("explore: grid point l1=%d lvc=%d size=%dK pen=%d: %w",
								n, m, kb, pen, err)
						}
						name := cfg.Name
						if p.ARPTEntries > 0 {
							name = fmt.Sprintf("%s@arpt%d", cfg.Name, p.ARPTEntries)
						}
						if seen[name] {
							continue
						}
						seen[name] = true
						pts = append(pts, Point{Name: name, ARPTEntries: p.ARPTEntries, Config: cfg})
					}
				}
			}
		}
	}
	dropped := 0
	if g.MaxPoints > 0 && len(pts) > g.MaxPoints {
		dropped = len(pts) - g.MaxPoints
		// Seeded Fisher-Yates over the indices, keep the first
		// MaxPoints, then restore enumeration order so the sample's
		// identity depends only on (grid, seed).
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		s := detrand.NewSampler(seed)
		for i := len(idx) - 1; i > 0; i-- {
			j := int(s.Next() % uint64(i+1))
			idx[i], idx[j] = idx[j], idx[i]
		}
		keep := idx[:g.MaxPoints]
		sort.Ints(keep)
		sampled := make([]Point, 0, g.MaxPoints)
		for _, i := range keep {
			sampled = append(sampled, pts[i])
		}
		pts = sampled
	}
	return pts, dropped, nil
}

// Eval is one evaluated design point with its three objectives: mean
// IPC across the workloads (maximize), total first-level cache plus
// ARPT capacity in KB (minimize), and total first-level port count
// (minimize).
type Eval struct {
	Point
	IPC           float64            `json:"ipc"`
	IPCByWorkload map[string]float64 `json:"ipc_by_workload"`
	TotalKB       float64            `json:"total_kb"`
	Ports         int                `json:"ports"`
	Pareto        bool               `json:"pareto"`
	Rank          int                `json:"rank"`
}

// Frontier is the ranked design-space artifact (schema
// "arl-frontier/v1"): every evaluated point in rank order, Pareto
// front first. It carries everything needed to reproduce it — grid,
// seed, workloads, scale, instruction budget — and no wall-clock
// state, so reruns are byte-identical.
type Frontier struct {
	Schema    string   `json:"schema"`
	Grid      Grid     `json:"grid"`
	Seed      uint64   `json:"seed"`
	Workloads []string `json:"workloads"`
	Scale     int      `json:"scale"`
	MaxInsts  uint64   `json:"max_insts"`
	Dropped   int      `json:"dropped_points"`
	Points    []Eval   `json:"points"`
}

// cost computes a point's capacity and port objectives from its
// resolved partitions plus the ARPT table the trace steering used.
func cost(p Point) (totalKB float64, ports int, err error) {
	parts, _, err := p.Config.ResolvePartitions()
	if err != nil {
		return 0, 0, err
	}
	bytes := 0
	for _, pc := range parts {
		bytes += pc.SizeBytes
		ports += pc.Ports
	}
	if p.Config.Decoupled() {
		pc := core.DefaultPipelineConfig()
		entries := p.ARPTEntries
		if entries == 0 {
			entries = pc.Entries
		}
		bytes += entries * pc.Bits / 8
	}
	return float64(bytes) / 1024, ports, nil
}

// dominates reports whether a is at least as good as b on every
// objective and strictly better on one.
func dominates(a, b Eval) bool {
	if a.IPC < b.IPC || a.TotalKB > b.TotalKB || a.Ports > b.Ports {
		return false
	}
	return a.IPC > b.IPC || a.TotalKB < b.TotalKB || a.Ports < b.Ports
}

// Assemble evaluates the objectives and ranks the frontier from
// simulation results laid out point-major (results[i][j] is point i on
// workload j). It is shared by the local Search and the arld client
// path, so a -server frontier is byte-identical to a local one.
func Assemble(grid Grid, seed uint64, scale int, maxInsts uint64,
	workloads []string, pts []Point, dropped int, results [][]*cpu.Result) (*Frontier, error) {
	if len(results) != len(pts) {
		return nil, fmt.Errorf("explore: %d result rows for %d points", len(results), len(pts))
	}
	evals := make([]Eval, len(pts))
	for i, p := range pts {
		if len(results[i]) != len(workloads) {
			return nil, fmt.Errorf("explore: point %s has %d results for %d workloads",
				p.Name, len(results[i]), len(workloads))
		}
		kb, ports, err := cost(p)
		if err != nil {
			return nil, fmt.Errorf("explore: point %s: %w", p.Name, err)
		}
		e := Eval{Point: p, TotalKB: kb, Ports: ports,
			IPCByWorkload: make(map[string]float64, len(workloads))}
		sum := 0.0
		for j, w := range workloads {
			r := results[i][j]
			if r == nil {
				return nil, fmt.Errorf("explore: point %s missing result for %s", p.Name, w)
			}
			ipc := r.IPC()
			e.IPCByWorkload[w] = ipc
			sum += ipc
		}
		e.IPC = sum / float64(len(workloads))
		evals[i] = e
	}
	for i := range evals {
		evals[i].Pareto = true
		for j := range evals {
			if i != j && dominates(evals[j], evals[i]) {
				evals[i].Pareto = false
				break
			}
		}
	}
	sort.SliceStable(evals, func(i, j int) bool {
		if evals[i].Pareto != evals[j].Pareto {
			return evals[i].Pareto
		}
		if evals[i].IPC != evals[j].IPC {
			return evals[i].IPC > evals[j].IPC
		}
		if evals[i].TotalKB != evals[j].TotalKB {
			return evals[i].TotalKB < evals[j].TotalKB
		}
		if evals[i].Ports != evals[j].Ports {
			return evals[i].Ports < evals[j].Ports
		}
		return evals[i].Name < evals[j].Name
	})
	for i := range evals {
		evals[i].Rank = i + 1
	}
	return &Frontier{
		Schema:    FrontierSchema,
		Grid:      grid,
		Seed:      seed,
		Workloads: workloads,
		Scale:     scale,
		MaxInsts:  maxInsts,
		Dropped:   dropped,
		Points:    evals,
	}, nil
}

// Search runs the full sweep locally: enumerate the grid, evaluate
// every (point, workload) pair on the runner's worker pool through the
// store-memoized simulation stage, and assemble the ranked frontier.
func Search(r *experiments.Runner, grid Grid, seed uint64) (*Frontier, error) {
	pts, dropped, err := grid.Enumerate(seed)
	if err != nil {
		return nil, err
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("explore: runner has no workloads")
	}
	names := make([]string, len(r.Workloads))
	for i, w := range r.Workloads {
		names[i] = w.Name
	}
	results := make([][]*cpu.Result, len(pts))
	for i := range results {
		results[i] = make([]*cpu.Result, len(names))
	}
	nw := len(names)
	err = r.ParallelDo(len(pts)*nw, func(i int) error {
		pi, wi := i/nw, i%nw
		res, err := r.SimulateConfigARPT(r.Workloads[wi], pts[pi].ARPTEntries, pts[pi].Config)
		if err != nil {
			return err
		}
		results[pi][wi] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Assemble(grid, seed, r.Scale, r.MaxInsts, names, pts, dropped, results)
}

// Encode renders the frontier artifact deterministically (indented
// JSON, sorted map keys, trailing newline).
func Encode(f *Frontier) ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
