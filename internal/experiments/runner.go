// Package experiments implements the drivers that regenerate every
// table and figure of the paper's evaluation (the E1-E11 index in
// DESIGN.md). Each experiment returns structured rows; the render
// functions print them in the paper's layout so results can be read
// side by side with the original.
//
// The Runner is the single memoizing, concurrency-safe source of
// compiled programs, region profiles, timing traces and baseline
// simulation results. Drivers fan out over workloads and
// (workload, configuration) pairs on a bounded worker pool (see
// Runner.Parallel); rows always come back in workload order, so the
// parallel harness renders byte-identical tables to the serial one.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/workload"
)

// WorkloadError is one workload's failure inside an experiment batch:
// which workload, which pipeline stage (compile, profile, trace,
// simulate), and the underlying cause. With Runner.Degrade set,
// drivers record these and drop the workload's rows instead of
// aborting the whole batch.
type WorkloadError struct {
	Workload string
	Stage    string
	Err      error
}

func (e *WorkloadError) Error() string {
	return fmt.Sprintf("%s: %s: %v", e.Workload, e.Stage, e.Err)
}

func (e *WorkloadError) Unwrap() error { return e.Err }

// Timeout reports whether the failure was a watchdog expiry or
// cancellation rather than a genuine workload defect.
func (e *WorkloadError) Timeout() bool {
	return errors.Is(e.Err, context.DeadlineExceeded) || errors.Is(e.Err, context.Canceled)
}

// Runner holds the shared setup for a batch of experiments.
type Runner struct {
	// Workloads selects the programs (default: all twelve).
	Workloads []*workload.Workload
	// Scale overrides the per-workload default scale when positive.
	Scale int
	// MaxInsts truncates functional runs and traces when positive,
	// useful for quick runs and benchmarks.
	MaxInsts uint64
	// Log receives progress lines (nil for silence).
	Log io.Writer
	// Parallel bounds the worker pool the drivers fan out on. Zero
	// uses runtime.GOMAXPROCS(0); 1 forces the serial path. Every
	// worker gets its own classifier/ARPT state, so results are
	// independent of the pool size.
	Parallel int

	// Ctx, when non-nil, cancels all outstanding work when it ends;
	// functional runs and simulations poll it cooperatively.
	Ctx context.Context
	// WorkloadTimeout, when positive, is the per-stage watchdog: each
	// profile, trace build, and simulation of one workload gets its
	// own deadline, so a single wedged workload cannot stall a batch.
	WorkloadTimeout time.Duration
	// Degrade turns per-workload failures into recorded
	// WorkloadErrors (see Errors) instead of batch aborts; drivers
	// then report the surviving workloads.
	Degrade bool

	// Obs, when non-nil, receives the metrics of every simulation the
	// runner performs (memo misses only — a memoized result is
	// published exactly once). Drivers render or archive the registry
	// after the batch; see obs.EncodeArtifact.
	Obs *obs.Registry

	// Store, when non-nil, makes the memoized stages durable: every
	// compiled program, profile, trace and simulation result is written
	// through to the artifact store, so a campaign killed mid-flight
	// leaves its completed work on disk.
	Store *store.Store
	// Resume, with Store set, satisfies stage requests from verified
	// store records before recomputing — the read side of crash
	// recovery. A simulation's store hit publishes the stored Result
	// into Obs, as its run would have, so a resumed campaign's metrics
	// artifact is identical to an uninterrupted run's.
	Resume bool
	// Retry paces re-attempts of failed stages (deterministic seeded
	// backoff; see resilience.Retry). The zero value runs each stage
	// once. When Retry.AttemptTimeout is zero, WorkloadTimeout bounds
	// each attempt.
	Retry resilience.Retry
	// Breaker, when non-nil, trips per workload after consecutive
	// stage failures: further stages of that workload degrade to fast
	// rendered errors instead of burning the retry budget again.
	Breaker *resilience.Breaker

	logMu     sync.Mutex
	programs  memo[*prog.Program]
	profiles  memo[*profile.Profile]
	traces    memo[*cpu.Trace]
	results   memo[*cpu.Result]
	campaigns memo[*faultinject.Summary]

	errMu  sync.Mutex
	wlErrs []*WorkloadError

	statMu   sync.Mutex
	runStats map[string]*RunStat
}

// RunStat aggregates the harness-side cost of one workload across a
// batch: how long the expensive memoized stages took and how fast the
// timing model ran. Memo hits cost nothing and are not counted.
type RunStat struct {
	Workload   string
	TraceInsts uint64        // instructions in the memoized trace
	TraceWall  time.Duration // wall time spent building the trace
	Sims       int           // timing simulations run
	SimCycles  uint64        // simulated cycles summed over them
	SimWall    time.Duration // wall time summed over them
}

// CyclesPerSecond reports the aggregate simulation speed of the
// workload: simulated cycles per wall-clock second.
func (s RunStat) CyclesPerSecond() float64 {
	if s.SimWall <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.SimWall.Seconds()
}

func (r *Runner) stat(name string) *RunStat {
	if r.runStats == nil {
		r.runStats = make(map[string]*RunStat)
	}
	s := r.runStats[name]
	if s == nil {
		s = &RunStat{Workload: name}
		r.runStats[name] = s
	}
	return s
}

func (r *Runner) noteTrace(name string, insts uint64, d time.Duration) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	s := r.stat(name)
	s.TraceInsts = insts
	s.TraceWall += d
}

func (r *Runner) noteSim(name string, cycles uint64, d time.Duration) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	s := r.stat(name)
	s.Sims++
	s.SimCycles += cycles
	s.SimWall += d
}

// RunStats reports the per-workload run statistics collected so far,
// sorted by workload name.
func (r *Runner) RunStats() []RunStat {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	out := make([]RunStat, 0, len(r.runStats))
	for _, s := range r.runStats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}

// RenderRunStats prints the per-workload harness cost table: trace
// build time, simulation count, and simulated-cycles-per-second.
func RenderRunStats(w io.Writer, rows []RunStat) {
	fmt.Fprintln(w, "Run statistics (per workload; memoized stages counted once)")
	fmt.Fprintf(w, "%-12s %12s %9s %5s %14s %9s %12s\n",
		"workload", "trace insts", "trace s", "sims", "sim cycles", "sim s", "Mcycles/s")
	var tot RunStat
	for _, s := range rows {
		fmt.Fprintf(w, "%-12s %12d %9.3f %5d %14d %9.3f %12.2f\n",
			s.Workload, s.TraceInsts, s.TraceWall.Seconds(), s.Sims,
			s.SimCycles, s.SimWall.Seconds(), s.CyclesPerSecond()/1e6)
		tot.TraceInsts += s.TraceInsts
		tot.TraceWall += s.TraceWall
		tot.Sims += s.Sims
		tot.SimCycles += s.SimCycles
		tot.SimWall += s.SimWall
	}
	fmt.Fprintf(w, "%-12s %12d %9.3f %5d %14d %9.3f %12.2f\n",
		"total", tot.TraceInsts, tot.TraceWall.Seconds(), tot.Sims,
		tot.SimCycles, tot.SimWall.Seconds(), tot.CyclesPerSecond()/1e6)
}

// NewRunner returns a Runner over all twelve workloads.
func NewRunner() *Runner {
	return &Runner{Workloads: workload.All()}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.logMu.Lock()
		fmt.Fprintf(r.Log, format+"\n", args...)
		r.logMu.Unlock()
	}
}

// memo is a concurrency-safe compute-once cache. A miss claims a
// per-key entry under the map lock and computes with the lock
// released, so one slow computation never blocks lookups of other
// keys; concurrent callers of the same key share the single
// computation through the entry's mutex instead of duplicating it.
//
// Transient failures — cancellation, watchdog expiry, an open circuit
// breaker — are never cached: they describe the run, not the key, so
// the entry stays unresolved and the next caller recomputes. A
// cancelled campaign therefore does not poison the memo for a resume
// within the same process.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

func (c *memo[T]) get(key string, compute func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[T])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[T]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.val, e.err
	}
	val, err := compute()
	if err != nil && resilience.Transient(err) {
		var zero T
		return zero, err
	}
	e.val, e.err, e.done = val, err, true
	return e.val, e.err
}

// len reports how many keys have been claimed (for tests).
func (c *memo[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// ctx reports the runner's campaign context (Background when unset).
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// watched reports whether cooperative cancellation is worth installing
// in simulations: there is a campaign context, a per-stage watchdog, or
// a per-attempt deadline that could fire. Functional runs need no such
// guard: vm.Machine.Run polls only a context that can be cancelled.
func (r *Runner) watched() bool {
	return r.Ctx != nil || r.WorkloadTimeout > 0 || r.Retry.AttemptTimeout > 0
}

// stage runs one named pipeline step of one workload under the
// runner's resilience policy: the workload's circuit breaker gates
// entry, the retry policy paces re-attempts (each attempt bounded by
// Retry.AttemptTimeout, defaulting to the WorkloadTimeout watchdog),
// and the outcome feeds back into the breaker. fn receives the
// per-attempt context.
func (r *Runner) stage(wl, stage string, fn func(ctx context.Context) error) error {
	if r.Breaker != nil {
		if err := r.Breaker.Allow(wl); err != nil {
			return err
		}
	}
	retry := r.Retry
	if retry.AttemptTimeout <= 0 {
		retry.AttemptTimeout = r.WorkloadTimeout
	}
	user := retry.OnRetry
	retry.OnRetry = func(name string, attempt int, delay time.Duration, err error) {
		r.logf("retrying %s: attempt %d failed (%v); next try in %v", name, attempt, err, delay)
		if r.Obs != nil {
			r.Obs.Counter("harness_retries_total", "stage attempts retried after a failure",
				obs.Labels{"workload": wl, "stage": stage}).Inc()
		}
		if user != nil {
			user(name, attempt, delay, err)
		}
	}
	err := retry.Do(r.ctx(), wl+"/"+stage, fn)
	if r.Breaker != nil {
		wasOpen := r.Breaker.Tripped(wl)
		r.Breaker.Record(wl, err)
		if !wasOpen && r.Breaker.Tripped(wl) {
			r.logf("circuit breaker tripped for %s (last failure: %v)", wl, err)
			if r.Obs != nil {
				r.Obs.Counter("harness_breaker_trips_total", "workloads whose circuit breaker tripped",
					obs.Labels{"workload": wl}).Inc()
			}
		}
	}
	return err
}

// StoreVersion names the producing code version inside store keys, so
// records written by an incompatible pipeline never alias current
// ones; the service journals it with each job, so a replayed result
// answers new work only under the version that produced it. Bump
// whenever compilation, profiling, tracing or simulation
// semantics change.
//
// v2: configs key on cpu.Config.Key() (full-field, Stringer-proof),
// results carry per-partition statistics, and cache metrics gained the
// partition label — v1 records would replay the old label set.
//
// v3: simulations over a tagged trace (arpt=N, policy=..., storm=...)
// publish their metrics with a trace label — v2 fragments of ARPT
// variants would replay without it.
//
// v4: profiles carry the LVC statistics E8 reads — a v3 profile would
// decode with a zero LVC.
//
// v5: a result record is the cpu.Result alone, in its packed codec,
// with its occupancy histograms; metrics are published from it, and
// the v4 record's JSON metrics fragment is gone.
const StoreVersion = "arl/v5"

// storeKey builds the canonical store key for one artifact of this
// runner's campaign (its scale and instruction budget are part of the
// identity; config distinguishes per-configuration artifacts).
func (r *Runner) storeKey(kind, wl, config string) store.Key {
	return store.Key{
		Kind:     kind,
		Workload: wl,
		Scale:    r.Scale,
		MaxInsts: r.MaxInsts,
		Config:   config,
		Version:  StoreVersion,
	}
}

// storeLoad attempts to satisfy a stage from the artifact store,
// reporting whether v now holds a verified record. Only resuming runs
// read; corruption and I/O problems degrade to a miss.
func (r *Runner) storeLoad(k store.Key, v any) bool {
	if r.Store == nil || !r.Resume {
		return false
	}
	ok, err := r.Store.Get(k, v)
	if err != nil {
		r.logf("store: reading %s: %v", k, err)
		return false
	}
	if ok {
		r.logf("resumed %s from store", k)
	}
	return ok
}

// storePut writes a freshly computed artifact through to the store.
// Persistence failures are logged, not fatal: the result is already in
// memory and the campaign proceeds; only resumability suffers.
func (r *Runner) storePut(k store.Key, v any) {
	if r.Store == nil {
		return
	}
	if err := r.Store.Put(k, v); err != nil {
		r.logf("store: %v", err)
	}
}

// record stores one degraded workload failure (once per
// workload/stage; memoized errors are sticky, so many drivers may
// observe the same failure). An open circuit breaker reports at most
// once per workload — after a trip every remaining stage fails the
// same way, and one line says it all.
func (r *Runner) record(we *WorkloadError) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	open := errors.Is(we.Err, resilience.ErrOpen)
	for _, old := range r.wlErrs {
		if old.Workload != we.Workload {
			continue
		}
		if old.Stage == we.Stage {
			return
		}
		if open && errors.Is(old.Err, resilience.ErrOpen) {
			return
		}
	}
	r.wlErrs = append(r.wlErrs, we)
}

// Errors reports the workload failures recorded while degrading,
// sorted by workload then stage. Empty means every requested row was
// produced.
func (r *Runner) Errors() []*WorkloadError {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	out := append([]*WorkloadError(nil), r.wlErrs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// degraded absorbs err as a recorded workload failure when the runner
// is degrading, reporting whether the caller should skip the workload
// instead of failing the batch.
func (r *Runner) degraded(err error) bool {
	if !r.Degrade {
		return false
	}
	var we *WorkloadError
	if !errors.As(err, &we) {
		return false
	}
	r.record(we)
	return true
}

// Program compiles (and memoizes) one workload.
func (r *Runner) Program(w *workload.Workload) (*prog.Program, error) {
	return r.programs.get(w.Name, func() (*prog.Program, error) {
		key := r.storeKey("program", w.Name, "")
		var stored prog.Program
		if r.storeLoad(key, &stored) {
			err := stored.Validate()
			if err == nil {
				return &stored, nil
			}
			r.logf("store: %s decoded but fails validation (%v); recompiling", key, err)
		}
		var p *prog.Program
		err := r.stage(w.Name, "compile", func(context.Context) error {
			var err error
			p, err = w.Compile(r.Scale)
			return err
		})
		if err != nil {
			return nil, &WorkloadError{Workload: w.Name, Stage: "compile", Err: err}
		}
		r.storePut(key, p)
		return p, nil
	})
}

// Profile runs (and memoizes) the region profile of one workload. The
// profile backs Table 1, Figure 2, Table 2, the LVC hit rates of E8 and
// the §3.5.2 oracle hints.
func (r *Runner) Profile(w *workload.Workload) (*profile.Profile, error) {
	return r.profiles.get(w.Name, func() (*profile.Profile, error) {
		key := r.storeKey("profile", w.Name, "")
		var stored profile.Profile
		if r.storeLoad(key, &stored) {
			return &stored, nil
		}
		p, err := r.Program(w)
		if err != nil {
			return nil, err
		}
		r.logf("profiling %s ...", w.Name)
		var pr *profile.Profile
		err = r.stage(w.Name, "profile", func(ctx context.Context) error {
			var err error
			pr, err = profile.Run(ctx, p, r.MaxInsts, nil)
			return err
		})
		if err != nil {
			return nil, &WorkloadError{Workload: w.Name, Stage: "profile", Err: err}
		}
		r.storePut(key, pr)
		return pr, nil
	})
}

// Trace builds (and memoizes) one workload's default-steering timing
// trace — the expensive full functional re-execution every timing
// driver needs. cpu.Simulate treats traces as read-only, so the one
// memoized trace safely backs any number of concurrent simulations
// across machine configurations.
func (r *Runner) Trace(w *workload.Workload) (*cpu.Trace, error) {
	return r.trace(w, "", nil)
}

// TraceARPT builds (and memoizes) a workload's timing trace with the
// steering predictor's ARPT sized to entries (0 means the 32K-entry
// pipeline default, sharing the default trace's memo and store
// records). Distinct ARPT sizes steer differently, so each size is its
// own trace identity.
func (r *Runner) TraceARPT(w *workload.Workload, entries int) (*cpu.Trace, error) {
	if entries == 0 {
		return r.Trace(w)
	}
	return r.trace(w, arptTag(entries), func(*prog.Program) (cpu.TraceOptions, error) {
		pcfg := core.DefaultPipelineConfig()
		pcfg.Entries = entries
		table, err := core.NewARPT(pcfg)
		if err != nil {
			return cpu.TraceOptions{}, err
		}
		cls, err := core.NewClassifier(
			core.ClassifierConfig{Scheme: cpu.Scheme1BitHybridPipeline},
			core.WithTable(table))
		return cpu.TraceOptions{Classifier: cls}, err
	})
}

func arptTag(entries int) string { return fmt.Sprintf("arpt=%d", entries) }

// policyTag names a steering policy's trace identity. PolicyARPT is
// exactly the default trace, so it has no tag.
func policyTag(pol decouple.Policy) string {
	if pol == decouple.PolicyARPT {
		return ""
	}
	return "policy=" + pol.String()
}

// tracePolicy builds (and memoizes) a workload's timing trace under one
// E12 steering policy.
func (r *Runner) tracePolicy(w *workload.Workload, pol decouple.Policy) (*cpu.Trace, error) {
	tag := policyTag(pol)
	if tag == "" {
		return r.Trace(w)
	}
	var pr *profile.Profile
	if pol == decouple.PolicyOracle {
		var err error
		if pr, err = r.Profile(w); err != nil {
			return nil, err
		}
	}
	return r.trace(w, tag, func(p *prog.Program) (cpu.TraceOptions, error) {
		return decouple.TraceOptions(pol, p, pr)
	})
}

// trace is the one trace stage. tag names a non-default trace ("" is
// the default-steering trace) and extends both the memo key and the
// store key's config field; options (nil for the defaults) renders the
// steering setup per attempt, because classifier state is mutable and
// must not be shared across retries.
func (r *Runner) trace(w *workload.Workload, tag string,
	options func(*prog.Program) (cpu.TraceOptions, error)) (*cpu.Trace, error) {
	memoKey, label := w.Name, w.Name
	if tag != "" {
		memoKey += "|" + tag
		label += " (" + tag + ")"
	}
	return r.traces.get(memoKey, func() (*cpu.Trace, error) {
		key := r.storeKey("trace", w.Name, tag)
		stored := new(cpu.Trace)
		if r.storeLoad(key, stored) {
			r.noteTrace(w.Name, uint64(len(stored.Insts)), 0)
			return stored, nil
		}
		p, err := r.Program(w)
		if err != nil {
			return nil, err
		}
		r.logf("tracing %s ...", label)
		var tr *cpu.Trace
		err = r.stage(w.Name, "trace", func(ctx context.Context) error {
			var opts cpu.TraceOptions
			if options != nil {
				var err error
				if opts, err = options(p); err != nil {
					return err
				}
			}
			opts.MaxInsts, opts.Ctx = r.MaxInsts, ctx
			start := time.Now() //arlvet:allow wallclock RunStats measures harness cost; wall time never reaches simulation results
			var err error
			tr, err = cpu.BuildTrace(p, opts)
			if err != nil {
				return err
			}
			r.noteTrace(w.Name, uint64(len(tr.Insts)), time.Since(start)) //arlvet:allow wallclock RunStats measures harness cost; wall time never reaches simulation results
			return nil
		})
		if err != nil {
			return nil, &WorkloadError{Workload: w.Name, Stage: "trace", Err: err}
		}
		r.storePut(key, tr)
		return tr, nil
	})
}

// SimulateConfig simulates (and memoizes) one workload's default trace
// under one machine configuration. The memo key covers every Config
// field (cpu.Config.Key, not the display name), so e.g. the (3+3)
// machine at different misprediction penalties occupies distinct
// entries, while the (2+0) baseline that both Figure 8 and the penalty
// sweep need is simulated exactly once.
func (r *Runner) SimulateConfig(w *workload.Workload, cfg cpu.Config) (*cpu.Result, error) {
	return r.simulate(w, cfg, "", func() (*cpu.Trace, error) { return r.Trace(w) })
}

// SimulateConfigARPT simulates one workload under one machine
// configuration with the steering ARPT sized to entries (0 means the
// pipeline default, collapsing onto SimulateConfig's records so
// explorer points dedupe against plain campaigns).
func (r *Runner) SimulateConfigARPT(w *workload.Workload, entries int, cfg cpu.Config) (*cpu.Result, error) {
	if entries == 0 {
		return r.SimulateConfig(w, cfg)
	}
	return r.simulate(w, cfg, arptTag(entries), func() (*cpu.Trace, error) { return r.TraceARPT(w, entries) })
}

// simulate is the one simulation stage. tag names the trace the
// configuration runs over ("" for the default trace, as in trace): it
// prefixes both the memo and the store key, and labels the published
// metrics (trace=<tag>) so variants sharing a config name keep
// separate series. trace is only called on a miss, so a resumed
// simulation never rebuilds its input.
func (r *Runner) simulate(w *workload.Workload, cfg cpu.Config, tag string,
	trace func() (*cpu.Trace, error)) (*cpu.Result, error) {
	cfgKey, what := cfg.Key(), cfg.Name
	var labels obs.Labels
	if tag != "" {
		cfgKey = tag + "|" + cfgKey
		what += " " + tag
		labels = obs.Labels{"trace": tag}
	}
	stage := "simulate " + what
	key := w.Name + "|" + cfgKey
	return r.results.get(key, func() (*cpu.Result, error) {
		skey := r.storeKey("result", w.Name, cfgKey)
		if stored := new(cpu.Result); r.storeLoad(skey, stored) {
			stored.Publish(r.Obs, labels)
			return stored, nil
		}
		tr, err := trace()
		if err != nil {
			return nil, err
		}
		r.logf("  %s %s ...", w.Name, what)
		var res *cpu.Result
		err = r.stage(w.Name, stage, func(ctx context.Context) error {
			var simOpts []cpu.Option
			if r.watched() {
				simOpts = append(simOpts, cpu.WithContext(ctx))
			}
			sim, err := cpu.New(cfg, simOpts...)
			if err != nil {
				return err
			}
			start := time.Now() //arlvet:allow wallclock RunStats measures harness cost; wall time never reaches simulation results
			res, err = sim.Run(tr)
			if err != nil {
				return err
			}
			r.noteSim(w.Name, res.Cycles, time.Since(start)) //arlvet:allow wallclock RunStats measures harness cost; wall time never reaches simulation results
			return nil
		})
		if err != nil {
			return nil, &WorkloadError{Workload: w.Name, Stage: stage, Err: err}
		}
		// Only a successful attempt gets here, so a failed one
		// publishes nothing.
		res.Publish(r.Obs, labels)
		r.storePut(skey, res)
		return res, nil
	})
}

// workers resolves the worker-pool bound.
func (r *Runner) workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelDo runs fn(i) for every i in [0, n) on the runner's worker
// pool — the same pool the experiment drivers use, exported for
// drivers (like the design-space explorer) that fan out over something
// other than the workload list.
func (r *Runner) ParallelDo(n int, fn func(i int) error) error {
	return r.parallelDo(n, fn)
}

// parallelDo runs fn(i) for every i in [0, n) on a pool of at most
// r.workers() goroutines. All invocations run regardless of failures;
// the first error in index order is returned, so the error a caller
// sees does not depend on goroutine scheduling.
func (r *Runner) parallelDo(n int, fn func(i int) error) error {
	workers := r.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs f over the runner's workloads on the worker pool,
// collecting results in workload order. While degrading, failed
// workloads are recorded (see Errors) and their rows dropped.
func forEach[T any](r *Runner, f func(w *workload.Workload) (T, error)) ([]T, error) {
	out := make([]T, len(r.Workloads))
	skip := make([]bool, len(r.Workloads))
	err := r.parallelDo(len(r.Workloads), func(i int) error {
		v, err := f(r.Workloads[i])
		if err != nil {
			if r.degraded(err) {
				skip[i] = true
				return nil
			}
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := make([]T, 0, len(out))
	for i := range out {
		if !skip[i] {
			kept = append(kept, out[i])
		}
	}
	return kept, nil
}
