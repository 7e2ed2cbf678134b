// Command arlsim regenerates the paper's Figure 8: the timing study of
// conventional (N+0) and data-decoupled (N+M) memory-pipeline
// configurations on the Table 4 machine, plus the misprediction-penalty
// ablation.
//
// Usage:
//
//	arlsim [-fig8] [-ablationpenalty] [-ablationsteer] [-ablationffwd]
//	       [-w name] [-scale N] [-n maxInsts] [-parallel N] [-timeout D]
//	arlsim -server http://host:port [-tenant name] [-fig8] [-ablationpenalty]
//	arlsim -trace-events out.json [-config "(3+3)"] [-w name | name]
//
// With -server, the timing studies (-fig8, -ablationpenalty) submit
// their units to a running arld and assemble the report from the
// returned results — byte-identical to a local run, with overlapping
// units deduplicated server-side across concurrent clients. The
// steering and fast-forward ablations run as ordinary Runner stages
// (memoized, stored, resumable), but arld serves only the Figure 8
// and penalty grids, so they stay local.
//
// With -trace-events, arlsim runs a single workload through one
// configuration with the cycle-event tracer attached and writes a
// Chrome trace-event JSON (load it in chrome://tracing or
// ui.perfetto.dev). The run self-checks: the trace's misprediction
// detect→cancel→replay spans must match the simulator's recovery
// count.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	c := cliutil.New("arlsim")
	f8 := flag.Bool("fig8", false, "Figure 8: (N+M) configuration study")
	abp := flag.Bool("ablationpenalty", false, "ARPT misprediction penalty sweep")
	abs := flag.Bool("ablationsteer", false, "steering policy ablation")
	abf := flag.Bool("ablationffwd", false, "LVAQ fast-forwarding ablation")
	cfgName := flag.String("config", "(3+3)",
		`machine configuration for -trace-events, "(N+M)" (M=0 for conventional)`)
	c.WorkloadFlags(0)
	c.RunnerFlags()
	c.SeedFlag(1)
	c.StoreFlags()
	c.ServerFlags()
	c.ObsFlags("")
	c.TraceFlags()
	flag.Parse()
	c.Start()

	if c.TraceEvents != "" {
		traceRun(c, *cfgName)
		return
	}

	all := !*f8 && !*abp && !*abs && !*abf
	if c.Server != "" {
		remoteRun(c, all || *f8, all || *abp, *abs, *abf)
		return
	}
	c.HandleSignals()
	r := c.Runner()

	if all || *f8 {
		rows, err := r.Figure8()
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderFigure8(rows, cpu.Figure8Configs()))
	}
	if all || *abp {
		rows, err := r.PenaltySweep([]int{1, 4, 16})
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderPenaltySweep(rows))
	}
	if all || *abs {
		rows, err := r.SteeringPolicies()
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderSteering(rows))
	}
	if all || *abf {
		rows, err := r.FastForwardAblation()
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderFastForward(rows))
	}
	if errs := r.Errors(); len(errs) > 0 {
		fmt.Print(experiments.RenderWorkloadErrors(errs))
	}
	c.Finish(r.Obs)
	c.Exit()
}

// remoteRun is the -server mode: the timing studies run on an arld,
// assembled through the same row assemblers the local path uses.
func remoteRun(c *cliutil.Common, f8, abp, abs, abf bool) {
	if abs || abf {
		c.Fatalf("-ablationsteer and -ablationffwd are not served by arld; drop -server to run them")
	}
	cl := c.ServiceClient()
	workloads := c.Workloads()
	if f8 {
		rows, err := cl.Figure8(c.Scale, c.MaxInsts, c.Seed, workloads, cpu.Figure8Configs())
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderFigure8(rows, cpu.Figure8Configs()))
	}
	if abp {
		rows, err := cl.PenaltySweep(c.Scale, c.MaxInsts, c.Seed, workloads, []int{1, 4, 16})
		if err != nil {
			c.Fatalf("%v", err)
		}
		fmt.Println(experiments.RenderPenaltySweep(rows))
	}
	c.Finish(nil)
}

// traceRun is the -trace-events mode: one workload, one configuration,
// full cycle-event capture.
func traceRun(c *cliutil.Common, cfgName string) {
	cfg, err := service.ParseConfigName(cfgName)
	if err != nil {
		c.Fatalf("-config: %v", err)
	}
	if c.Workload == "" && flag.NArg() == 1 {
		c.Workload = flag.Arg(0)
	}
	if c.Workload == "" {
		c.Fatalf("-trace-events traces exactly one workload; name it with -w or as the argument")
	}
	w := c.Workloads()[0]
	p, err := w.Compile(c.Scale)
	if err != nil {
		c.Fatalf("%v", err)
	}
	tr, err := cpu.BuildTrace(p, cpu.TraceOptions{MaxInsts: c.MaxInsts})
	if err != nil {
		c.Fatalf("%v", err)
	}

	ring := obs.NewRing(c.TraceCap)
	sim, err := cpu.New(cfg, cpu.WithTracer(ring))
	if err != nil {
		c.Fatalf("%v", err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		c.Fatalf("%v", err)
	}
	var reg *obs.Registry
	if c.MetricsPath != "" {
		reg = obs.NewRegistry()
		res.Publish(reg, nil)
	}

	var buf bytes.Buffer
	stats, err := obs.WriteChromeTrace(&buf, ring.Events(), obs.ChromeOptions{
		ProcessName: fmt.Sprintf("arlsim %s %s", w.Name, cfg.Name),
	})
	if err == nil {
		// Atomic temp+rename: a crash mid-write never leaves a
		// truncated trace behind.
		err = store.WriteFileAtomic(c.TraceEvents, buf.Bytes(), 0o644)
	}
	if err != nil {
		c.Fatalf("%s: %v", c.TraceEvents, err)
	}

	if d := ring.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr,
			"arlsim: ring dropped %d events (raise -trace-cap); recovery spans are never dropped\n", d)
	}
	fmt.Printf("%s %s: %d cycles, %d insts, IPC %.3f, %d recoveries\n",
		w.Name, cfg.Name, res.Cycles, res.Insts, res.IPC(), res.Recoveries)
	fmt.Printf("trace: %d events (%d op slices, %d recovery spans) -> %s\n",
		stats.Events, stats.OpSlices, stats.RecoverySpans, c.TraceEvents)
	if uint64(stats.RecoverySpans) != res.Recoveries {
		c.Fatalf("self-check failed: trace has %d recovery spans, simulator reported %d recoveries",
			stats.RecoverySpans, res.Recoveries)
	}
	c.Finish(reg)
}
