package cpu

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// benchInsts keeps one benchmark iteration around a hundred
// milliseconds: long enough that per-Run setup noise vanishes, short
// enough for -count=N comparison runs.
const benchInsts = 200_000

var (
	benchOnce sync.Once
	benchTr   *Trace
	benchErr  error
)

// benchTrace builds (once) the trace both overhead benchmarks share.
func benchTrace(b *testing.B) *Trace {
	b.Helper()
	benchOnce.Do(func() {
		w, ok := workload.ByName("129.compress")
		if !ok {
			panic("129.compress missing")
		}
		p, err := w.Compile(0)
		if err != nil {
			benchErr = err
			return
		}
		benchTr, benchErr = BuildTrace(p, TraceOptions{MaxInsts: benchInsts})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTr
}

// BenchmarkSimNoObs is the baseline: the plain Simulate path with no
// observability construct in sight.
func BenchmarkSimNoObs(b *testing.B) {
	tr := benchTrace(b)
	cfg := Decoupled(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimNopObs is the same simulation run through the
// observability API with the no-op tracer attached. WithTracer strips
// obs.Nop to nil at construction, so this measures the cost of the
// instrumented engine's nil-tracer guards — the CI guard asserts it
// stays within 2% of BenchmarkSimNoObs (results/obs_overhead.txt).
func BenchmarkSimNopObs(b *testing.B) {
	tr := benchTrace(b)
	sim, err := New(Decoupled(3, 3), WithTracer(obs.Nop{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRingObs bounds the cost of live tracing: every pipeline
// event emitted into the default ring buffer. Not guarded in CI — it
// documents the price of -trace-events, not a regression budget.
func BenchmarkSimRingObs(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring := obs.NewRing(0)
		sim, err := New(Decoupled(3, 3), WithTracer(ring))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Grid times one Figure 8 grid: the programs of the
// benchmark's sim_sched workload, whose grid is scheduling-bound
// rather than disambiguation-bound, at 250,000 instructions on the
// eight Figure 8 machines. It reports the engine's speed per simulated
// instruction and per cycle.
func BenchmarkFigure8Grid(b *testing.B) {
	const n = 250_000
	var trs []*Trace
	for _, name := range []string{"099.go", "132.ijpeg", "102.swim"} {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("%s missing", name)
		}
		p, err := w.Compile(0)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := BuildTrace(p, TraceOptions{MaxInsts: n})
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
	}
	cfgs := Figure8Configs()
	var insts, cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			for _, cfg := range cfgs {
				res, err := Simulate(tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Insts
				cycles += res.Cycles
			}
		}
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(sec*1e9/float64(insts), "ns/inst")
	b.ReportMetric(float64(cycles)/sec/1e6, "Mcycles/s")
}
