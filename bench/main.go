// Command bench is the repository benchmark. It runs one workload in
// this process for a fixed time, checks every output against a golden
// digest, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run alternates untraced and traced
// rounds and reports the per-layer metrics taken from the traced ones,
// and writes the spans as a Chrome trace. bench/run.sh builds and runs
// it from the root of a checkout; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// instance is one set-up workload, ready to run rounds. A round is one
// complete pass over the workload's fixed inputs.
type instance interface {
	// prepare readies round i; its cost is neither timed nor traced.
	prepare(e *env, i int) error
	// round runs round i and returns the time the round measures.
	round(e *env, i int) (time.Duration, error)
	close() error
}

// prepare is a no-op for workloads whose rounds need no reset.
func (*simBench) prepare(*env, int) error        { return nil }
func (*functionalBench) prepare(*env, int) error { return nil }

type benchmark struct {
	name   string
	golden string // digest file; arld_local and arld_fleet must agree
	// setups is how many rounds start on a fresh set-up; later rounds
	// reuse the last one. 0: every round does.
	setups  int
	overlap bool // operations run concurrently
	setup   func(e *env) (instance, error)
}

// sizes fix the inputs of every workload. The smoke test swaps in toy
// sizes; the checked-in goldens hold for fullSizes only.
type sizes struct {
	disamb, sched []string // sim_disamb and sim_sched programs
	simN, schedN  uint64
	simConfigs    int // leading Figure-8 configurations simulated
	functional    []string
	functionalN   uint64
	arld          []string // arld programs
	arldConfigs   []string
	unitsPerJob   int
	arldN, warmN  uint64
	warmSetups    int // populations arld_warm makes
	refKeys       int // size of the reference kernel
}

var allPrograms = []string{"099.go", "124.m88ksim", "126.gcc", "129.compress", "130.li", "132.ijpeg",
	"134.perl", "147.vortex", "101.tomcatv", "102.swim", "103.su2cor", "107.mgrid"}

var fullSizes = sizes{
	disamb:      []string{"129.compress", "130.li", "147.vortex", "101.tomcatv"},
	sched:       []string{"099.go", "132.ijpeg", "102.swim"},
	simN:        100_000,
	schedN:      250_000,
	simConfigs:  8,
	functional:  allPrograms,
	functionalN: 300_000,
	arld:        allPrograms,
	arldConfigs: arldConfigs(),
	unitsPerJob: 4,
	arldN:       10_000,
	warmN:       5_000,
	warmSetups:  3,
	refKeys:     1 << 16,
}

func benchmarks(sz sizes) []benchmark {
	return []benchmark{
		{"sim_disamb", "sim_disamb", 0, false, setupSim(sz.disamb, sz.simN, sz.simConfigs)},
		{"sim_sched", "sim_sched", 0, false, setupSim(sz.sched, sz.schedN, sz.simConfigs)},
		{"functional", "functional", 0, false, setupFunctional(sz.functional, sz.functionalN)},
		{"arld_local", "arld_cold", 0, true, setupArld(arldLocal, sz.arld, sz.arldConfigs, sz.unitsPerJob, sz.arldN)},
		{"arld_warm", "arld_warm", sz.warmSetups, true, setupArld(arldWarm, sz.arld, sz.arldConfigs, sz.unitsPerJob, sz.warmN)},
		{"arld_fleet", "arld_cold", 0, true, setupArld(arldFleet, sz.arld, sz.arldConfigs, sz.unitsPerJob, sz.arldN)},
	}
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// env is what a workload's set-up and rounds share within one run.
type env struct {
	seed int64
	tr   *tracer // nil in untraced runs
	gold *goldens
	work string // scratch directory, removed at exit

	mu  sync.Mutex
	ops map[string]float64 // latency (s) of each operation of the current round
}

// op records the latency of the operation named key.
func (e *env) op(key string, d time.Duration) {
	e.mu.Lock()
	if e.ops == nil {
		e.ops = map[string]float64{}
	}
	e.ops[key] = d.Seconds()
	e.mu.Unlock()
}

func (e *env) takeOps() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	ops := e.ops
	e.ops = nil
	return ops
}

// perm is the order of n inputs, fixed by the seed. Every round of a
// run uses the same order, so an operation meets the same neighbours
// each time and its repeats differ only by interference.
func (e *env) perm(n int) []int {
	return rand.New(rand.NewSource(e.seed)).Perm(n)
}

// fs is the filesystem a store or journal of the given layer runs on.
func (e *env) fs(layer string) store.FS {
	if e.tr == nil {
		return store.OS()
	}
	return newTimedFS(e.tr, layer)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	testdata string
	work     string
	repo     string
	update   bool
	sizes    sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a run prints before its result line, and writes with
// -o: sample counts, the tail percentile the sample count supports,
// (traced) self time per layer, and the raw timings behind the metrics
// with the factor that scales them.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Rounds     int                  `json:"rounds"`
	Ops        int                  `json:"ops"`
	TailPct    float64              `json:"tail_percentile"`
	TailMs     float64              `json:"tail_ms"`
	SelfS      map[string]float64   `json:"self_s_per_round,omitempty"`
	FirstError string               `json:"first_error,omitempty"`
	Samples    map[string][]float64 `json:"samples"`
	RoundS     []float64            `json:"round_s"`
	SetupS     []float64            `json:"setup_s"`
	RefS       []float64            `json:"ref_s"`
	Scale      float64              `json:"scale"`
}

func run(o options) (result, report, error) {
	var b *benchmark
	for _, c := range benchmarks(o.sizes) {
		if c.name == o.workload {
			b = &c
			break
		}
	}
	if b == nil {
		return result{}, report{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	gold, err := loadGoldens(o.testdata, b.golden, o.update)
	if err != nil {
		return result{}, report{}, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, report{}, err
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return result{}, report{}, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, gold: gold, work: work}
	if o.trace {
		e.tr = newTracer()
	}

	// Rounds run until the time is up, and at least once; a traced run
	// alternates untraced and traced rounds, starting untraced. Set-ups
	// interleave with the rounds, so that their median, like the rounds,
	// samples the whole run rather than one moment of it. The reference
	// kernel is timed before every timed phase, so that its fastest time
	// comes from the host's fastest moment in the run, like the fastest
	// repeats below.
	var setupS, roundS, tracedS, refS []float64
	samples := map[string][]float64{}
	ref := newRefKernel(o.sizes.refKeys)
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var mem [2]runtime.MemStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		if b.setups == 0 || i < b.setups {
			if inst != nil {
				err := inst.close()
				inst = nil
				if err != nil {
					return result{}, report{}, err
				}
			}
			settle()
			refS = append(refS, ref.time().Seconds())
			// A set-up repeated every round is part of each round's
			// per-layer cost; one made once up front is not.
			if traced && b.setups == 0 {
				e.tr.phase(false)
			}
			start := time.Now()
			pprof.Do(context.Background(), setupLabel, func(context.Context) { inst, err = b.setup(e) })
			setupS = append(setupS, time.Since(start).Seconds())
			e.tr.pause()
			if err != nil {
				return result{}, report{}, fmt.Errorf("%s set-up: %w", o.workload, err)
			}
			e.takeOps()
		}
		if err := inst.prepare(e, i); err != nil {
			return result{}, report{}, err
		}
		settle()
		refS = append(refS, ref.time().Seconds())
		if traced {
			e.tr.phase(true)
			runtime.ReadMemStats(&mem[0])
		}
		var d time.Duration
		pprof.Do(context.Background(), roundLabel, func(context.Context) { d, err = inst.round(e, i) })
		if traced {
			runtime.ReadMemStats(&mem[1])
			e.tr.count("go.alloc_bytes", float64(mem[1].TotalAlloc-mem[0].TotalAlloc))
			e.tr.count("go.gc_cycles", float64(mem[1].NumGC-mem[0].NumGC))
			e.tr.count("go.gc_pause_ns", float64(mem[1].PauseTotalNs-mem[0].PauseTotalNs))
			e.tr.pause()
		}
		if err != nil {
			return result{}, report{}, fmt.Errorf("%s round %d: %w", o.workload, i, err)
		}
		if traced {
			tracedS = append(tracedS, d.Seconds())
			e.takeOps()
		} else {
			roundS = append(roundS, d.Seconds())
			for k, v := range e.takeOps() {
				samples[k] = append(samples[k], v)
			}
		}
		if o.update || (time.Now().After(deadline) && (!o.trace || len(tracedS) > 0)) {
			break
		}
	}
	// Stop the workload before reading what it recorded.
	err = inst.close()
	inst = nil
	if err != nil {
		return result{}, report{}, err
	}
	if err := gold.save(); err != nil {
		return result{}, report{}, err
	}

	attempted, failed, first := gold.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	// Interference from other tenants of the host only ever adds time.
	// An operation that runs alone counts its fastest repeat in the run,
	// and a round of such operations the sum of those. Operations that
	// overlap keep every sample, since their latency depends on what ran
	// beside them and that distribution is what a client sees; their
	// round is the fastest round.
	var ops []float64
	roundTime := slices.Min(roundS)
	if b.overlap {
		for _, v := range samples {
			ops = append(ops, v...)
		}
	} else {
		roundTime = 0
		for _, v := range samples {
			ops = append(ops, slices.Min(v))
			roundTime += slices.Min(v)
		}
	}
	// Times are scaled to the reference speed (see refKernel): by the
	// kernel's nominal time over its fastest in the run, so that a run
	// spent wholly in a slow spell of the host, where even the fastest
	// repeats are slow, reads as a run on a quiet host.
	k := refNominal.Seconds() / slices.Min(refS)
	rep := report{Workload: o.workload, Seed: o.seed, Rounds: len(roundS) + len(tracedS), Ops: len(ops), FirstError: first,
		Samples: samples, RoundS: roundS, SetupS: setupS, RefS: refS, Scale: k}
	rep.TailPct = tailPercentile(len(ops))
	rep.TailMs = quantile(ops, rep.TailPct/100) * 1e3 * k
	if !o.trace {
		values := map[string]float64{
			"setup_s":     median(setupS) * k,
			"round_s":     roundTime * k,
			"op_p50_ms":   quantile(ops, 0.5) * 1e3 * k,
			"op_p90_ms":   quantile(ops, 0.9) * 1e3 * k,
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return res, rep, nil
	}

	overhead := median(tracedS)/median(roundS) - 1
	res.Metrics = layerMetrics(e.tr, overhead, countLines(o.repo))
	rep.SelfS = map[string]float64{}
	var roundSpans []span
	for _, s := range e.tr.spans {
		if s.Round {
			roundSpans = append(roundSpans, s)
		}
	}
	for layer, d := range selfTimes(roundSpans) {
		rep.SelfS[layer] = d.Seconds() / float64(e.tr.phases[1])
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return result{}, report{}, err
		}
		f, err := os.Create(filepath.Join(o.traceDir, o.workload+".trace.json"))
		if err != nil {
			return result{}, report{}, err
		}
		err = writeChrome(f, e.tr.spans)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, report{}, err
		}
	}
	return res, rep, nil
}

// CPU profile samples carry the phase of the goroutine that took them,
// and of the goroutine that started it: `go tool pprof -tagfocus
// phase=round` shows the rounds of arld_warm without its population.
var setupLabel, roundLabel = pprof.Labels("phase", "setup"), pprof.Labels("phase", "round")

// settle collects garbage, as testing.B does before timing, and
// flushes the filesystem, so that neither the previous round's garbage
// nor the write-back of its files lands in the next timed phase.
func settle() {
	runtime.GC()
	syscall.Sync()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func main() {
	var o options
	var trace int
	var out string
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for input order and idempotency keys")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to run rounds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from traced rounds")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes <workload>.trace.json")
	flag.BoolVar(&o.update, "update", false, "run one round and rewrite the golden digests")
	flag.StringVar(&out, "o", "", "also write the result and its provenance as JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	// Paths are relative to the root of the checkout, where run.sh runs.
	o.testdata, o.work, o.repo, o.sizes = "bench/testdata", ".bench_build/work", ".", fullSizes

	var prof *os.File
	if *cpuprofile != "" {
		var err error
		prof, err = os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	res, rep, err := run(o)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# %d rounds; %d operation latencies, p%g of them %.3f ms\n",
		rep.Rounds, rep.Ops, rep.TailPct, rep.TailMs)
	fmt.Printf("# times scaled by %.4f: the reference kernel's %v over its fastest of %d timings, %.3f ms\n",
		rep.Scale, refNominal, len(rep.RefS), slices.Min(rep.RefS)*1e3)
	layers := make([]string, 0, len(rep.SelfS))
	for l := range rep.SelfS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("# self time per round: %-12s %.4f s\n", l, rep.SelfS[l])
	}
	if rep.FirstError != "" {
		fmt.Printf("# first failure: %s\n", rep.FirstError)
	}
	if out != "" {
		if err := writeReport(out, o, res, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
