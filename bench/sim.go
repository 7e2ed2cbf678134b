package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/minicc"
	"repro/internal/prog"
	"repro/internal/workload"
)

// compile compiles w from source with minicc directly: workload.Compile
// memoizes per process, so repeated set-ups would time nothing.
func compile(e *env, w *workload.Workload) (*prog.Program, error) {
	start := e.tr.now()
	p, err := minicc.Compile(w.Name, w.Source(w.DefaultScale))
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", w.Name, err)
	}
	p.Name = w.Name
	e.tr.add(span{Layer: "minicc", Name: "compile", Label: w.Name, Start: start})
	return p, nil
}

func workloads(names []string) []*workload.Workload {
	var out []*workload.Workload
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			panic("bench: unknown workload " + n)
		}
		out = append(out, w)
	}
	return out
}

// cfgLabel shortens a configuration name for metric names:
// "(3+0,3cyc)" becomes "c3p0_3cyc".
func cfgLabel(name string) string {
	return strings.NewReplacer("(", "c", "+", "p", ",", "_", ")", "").Replace(name)
}

// simBench runs the Figure 8 grid over fixed programs the way arlsim
// does, through an experiments.Runner. A round issues
// Runner.SimulateConfig for every (workload, configuration) pair, in an
// order the seed permutes, so that each simulation is timed on its own;
// Runner.FigureWithConfigs then assembles the figure from the memo.
// The Runner memoizes results, so every round gets a fresh one, and
// with it a fresh set-up that builds the traces.
type simBench struct {
	r    *experiments.Runner
	cfgs []cpu.Config
}

func setupSim(names []string, n uint64, ncfg int) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		r := experiments.NewRunner()
		r.Workloads, r.MaxInsts, r.Parallel = workloads(names), n, 1
		for _, w := range r.Workloads {
			start := e.tr.now()
			tr, err := r.Trace(w)
			if err != nil {
				return nil, err
			}
			e.tr.add(span{Layer: "cpu", Name: "trace", Label: w.Name, Start: start, Insts: uint64(len(tr.Insts))})
		}
		return &simBench{r: r, cfgs: cpu.Figure8Configs()[:ncfg]}, nil
	}
}

func (b *simBench) round(e *env, i int) (time.Duration, error) {
	wls, nc := b.r.Workloads, len(b.cfgs)
	start := time.Now()
	for _, k := range e.perm(len(wls) * nc) {
		w, cfg := wls[k/nc], b.cfgs[k%nc]
		t0, s0 := time.Now(), e.tr.now()
		res, err := b.r.SimulateConfig(w, cfg)
		e.op(w.Name+" "+cfg.Name, time.Since(t0))
		if err == nil {
			e.tr.add(span{Layer: "cpu", Name: "sim", Label: w.Short + " " + cfgLabel(cfg.Name),
				Start: s0, Insts: res.Insts, Cycles: res.Cycles})
		}
		e.gold.check(w.Name+" "+cfg.Name, resultJSON(res), err)
	}
	rows, err := b.r.FigureWithConfigs(b.cfgs)
	e.gold.check("figure8", []byte(experiments.RenderFigure8(rows, b.cfgs)), err)
	return time.Since(start), nil
}

func (b *simBench) close() error { return nil }

// functionalBench produces the paper's functional figures (Table 1,
// Figure 2, Table 2, the predictor study and the LVC hit rates) and
// every workload's timing trace, with no timing simulation. Each round
// starts from a fresh Runner so nothing is served from its memos.
type functionalBench struct {
	wls []*workload.Workload
	n   uint64
}

func setupFunctional(names []string, n uint64) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		b := &functionalBench{wls: workloads(names), n: n}
		for _, w := range b.wls {
			if _, err := compile(e, w); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
}

func (b *functionalBench) round(e *env, i int) (time.Duration, error) {
	r := experiments.NewRunner()
	r.Workloads = b.wls
	r.MaxInsts = b.n
	r.Parallel = 1
	start := time.Now()
	if e.tr.enabled() {
		// Profile each workload on its own first, so the profile layer
		// gets one span per program; Table 1 then reads the memo.
		for _, w := range b.wls {
			s0 := e.tr.now()
			pr, err := r.Profile(w)
			if err != nil {
				return 0, err
			}
			e.tr.add(span{Layer: "profile", Name: "profile", Label: w.Name, Start: s0, Insts: pr.DynInsts})
		}
	}
	drivers := []struct {
		name, layer string
		run         func() (string, error)
	}{
		{"table1", "experiments", func() (string, error) {
			rows, err := r.Table1()
			return experiments.RenderTable1(rows), err
		}},
		{"figure2", "experiments", func() (string, error) {
			rows, err := r.Figure2()
			return experiments.RenderFigure2(rows), err
		}},
		{"table2", "experiments", func() (string, error) {
			rows, err := r.Table2()
			return experiments.RenderTable2(rows), err
		}},
		{"predictor", "core", func() (string, error) {
			st, err := r.RunPredictorStudy()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure4(st.Figure4) + experiments.RenderTable3(st.Table3) +
				experiments.RenderFigure5(st.Figure5) + experiments.RenderAblation(st.Ablation), nil
		}},
		{"lvc", "cache", func() (string, error) {
			rows, err := r.LVCHitRate()
			return experiments.RenderLVC(rows), err
		}},
	}
	for _, d := range drivers {
		t0, s0 := time.Now(), e.tr.now()
		out, err := d.run()
		e.op(d.name, time.Since(t0))
		e.tr.add(span{Layer: d.layer, Name: d.name, Start: s0})
		e.gold.check(d.name, []byte(out), err)
	}
	for _, k := range e.perm(len(b.wls)) {
		w := b.wls[k]
		t0, s0 := time.Now(), e.tr.now()
		tr, err := r.Trace(w)
		e.op("trace "+w.Name, time.Since(t0))
		var enc []byte
		if err == nil {
			e.tr.add(span{Layer: "cpu", Name: "trace", Label: w.Name, Start: s0, Insts: uint64(len(tr.Insts))})
			enc, err = tr.MarshalBinary()
		}
		e.gold.check("trace "+w.Name, enc, err)
	}
	return time.Since(start), nil
}

func (b *functionalBench) close() error { return nil }
