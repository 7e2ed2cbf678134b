// Package cliutil centralizes the flag surface and observability
// plumbing shared by the arl* commands: workload selection, harness
// shaping (-parallel, -timeout, -seed), Go profiling hooks
// (-cpuprofile, -memprofile, -pprof), the per-run metrics artifact
// (-metrics, see obs.Artifact) and the cycle-event trace
// (-trace-events). Each command registers only the flag groups it
// supports, so `arlasm -h` stays small while the shared flags spell
// and behave identically across every binary.
package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/resilience/chaosnet"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/store/faultfs"
	"repro/internal/workload"
)

// ExitInterrupted is the exit code of a run ended by SIGINT/SIGTERM
// after draining its workers and flushing its artifacts — distinct
// from 0 (complete) and 1 (failed), so campaign scripts can tell an
// interrupted run apart and resume it.
const ExitInterrupted = 130

// Common carries the shared command state: the parsed flag values plus
// the run clock and profiling handles. Build one with New before
// registering flags, call Start after flag.Parse, and Finish (usually
// deferred) before exit.
type Common struct {
	Cmd string // command name, used in error prefixes and artifact metadata

	// Workload selection (WorkloadFlags).
	Workload string
	Scale    int
	MaxInsts uint64

	// Harness shaping (RunnerFlags / SeedFlag).
	Parallel int
	Timeout  time.Duration
	Quiet    bool
	Seed     uint64

	// Observability (ObsFlags / TraceFlags).
	CPUProfile  string
	MemProfile  string
	PprofAddr   string
	MetricsPath string
	TraceEvents string
	TraceCap    int

	// Resilience (StoreFlags): the durable artifact store, resuming
	// from it, per-stage retries, and the deterministic storage-fault
	// plan chaos runs inject under the store and journal.
	StoreDir    string
	Resume      bool
	Retries     int
	StoreFaults string

	// NetFaults (NetFaultsFlag) is the deterministic network-fault plan
	// chaos runs inject under arld's listener or arlworker's transport.
	NetFaults string

	// Store is the artifact store opened by Runner when -store-dir is
	// set (nil otherwise); Finish publishes its counters.
	Store *store.Store

	// Server / Tenant are the -server mode flags (ServerFlags): when
	// Server names an arld base URL, campaign units are submitted
	// there instead of simulated in-process.
	Server string
	Tenant string

	start       time.Time
	fs          store.FS
	cpuOut      *os.File
	ctx         context.Context
	cancel      context.CancelFunc
	reg         *obs.Registry
	interrupted atomic.Bool
	failing     atomic.Bool
	exit        func(int) // os.Exit, overridable by tests
}

// New returns the shared state for one command invocation and starts
// its wall clock.
func New(cmd string) *Common {
	return &Common{Cmd: cmd, start: time.Now(), exit: os.Exit}
}

// WorkloadFlags registers -w, -scale and -n. defMaxInsts is the -n
// default (0 = full runs).
func (c *Common) WorkloadFlags(defMaxInsts uint64) {
	flag.StringVar(&c.Workload, "w", "", "restrict to one workload")
	flag.IntVar(&c.Scale, "scale", 0, "workload scale (0 = defaults)")
	flag.Uint64Var(&c.MaxInsts, "n", defMaxInsts, "truncate runs (0 = full)")
}

// RunnerFlags registers the harness-shaping flags -parallel, -timeout
// and -q.
func (c *Common) RunnerFlags() {
	flag.IntVar(&c.Parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	flag.DurationVar(&c.Timeout, "timeout", 0,
		"per-workload stage watchdog; implies graceful degradation (0 = off)")
	flag.BoolVar(&c.Quiet, "q", false, "suppress progress output")
}

// SeedFlag registers -seed with the given default.
func (c *Common) SeedFlag(def uint64) {
	flag.Uint64Var(&c.Seed, "seed", def, "campaign seed (same seed, same campaign, same output)")
}

// ServerFlags registers the -server mode flags: submitting campaign
// units to a running arld instead of simulating in-process.
func (c *Common) ServerFlags() {
	flag.StringVar(&c.Server, "server", "",
		"submit campaign units to the arld at this base URL (e.g. http://localhost:8080) instead of simulating locally")
	flag.StringVar(&c.Tenant, "tenant", "",
		"tenant identity reported to -server for quotas and metrics (default: the command name)")
}

// ServiceClient builds the arld client the -server flags describe,
// defaulting the tenant identity to the command name.
func (c *Common) ServiceClient() *service.Client {
	tenant := c.Tenant
	if tenant == "" {
		tenant = c.Cmd
	}
	cl := &service.Client{Base: c.Server, Tenant: tenant}
	if !c.Quiet {
		cl.Log = os.Stderr
	}
	return cl
}

// StoreFlags registers the crash-safety flags -store-dir, -resume,
// -retries and -store-faults.
func (c *Common) StoreFlags() {
	flag.StringVar(&c.StoreDir, "store-dir", "",
		"durable artifact store directory; completed stages are written through (empty = off)")
	flag.BoolVar(&c.Resume, "resume", false,
		"satisfy stages from verified -store-dir records before recomputing")
	flag.IntVar(&c.Retries, "retries", 0,
		"retry a failed stage up to this many times (deterministic backoff keyed by -seed)")
	flag.StringVar(&c.StoreFaults, "store-faults", "",
		"inject deterministic storage faults under the store and journal: seed:count:window (see internal/store/faultfs)")
}

// NetFaultsFlag registers -net-faults, the network sibling of
// -store-faults: a seeded chaos plan injected under arld's listener
// (accepted-connection faults) or arlworker's HTTP transport
// (round-trip faults).
func (c *Common) NetFaultsFlag() {
	flag.StringVar(&c.NetFaults, "net-faults", "",
		"inject deterministic network faults: seed:count:window (see internal/resilience/chaosnet)")
}

// NetInjector builds the -net-faults injector, nil when the flag is
// unset. Fatal on a malformed plan spec.
func (c *Common) NetInjector() *chaosnet.Injector {
	if c.NetFaults == "" {
		return nil
	}
	plan, err := chaosnet.ParsePlan(c.NetFaults)
	if err != nil {
		c.Fatalf("-net-faults: %v", err)
	}
	logf := func(string, ...any) {}
	if !c.Quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, c.Cmd+": "+format+"\n", args...)
		}
	}
	return chaosnet.New(plan, logf)
}

// StoreFS returns the filesystem the store and journal run on: the OS
// filesystem, wrapped with the -store-faults injection plan when one
// was given. The wrapper is built once and shared, so every component
// draws faults from the same deterministic plan.
func (c *Common) StoreFS() store.FS {
	if c.fs != nil {
		return c.fs
	}
	c.fs = store.OS()
	if c.StoreFaults != "" {
		plan, err := faultfs.ParsePlan(c.StoreFaults)
		if err != nil {
			c.Fatalf("-store-faults: %v", err)
		}
		logf := func(string, ...any) {}
		if !c.Quiet {
			logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, c.Cmd+": "+format+"\n", args...)
			}
		}
		c.fs = faultfs.New(c.fs, plan, logf)
	}
	return c.fs
}

// OpenStore opens the -store-dir artifact store over StoreFS, wires
// its log, and records it for Finish's provenance publish. Fatal when
// the directory cannot be initialized.
func (c *Common) OpenStore() *store.Store {
	s, err := store.OpenFS(c.StoreDir, c.StoreFS())
	if err != nil {
		c.Fatalf("%v", err)
	}
	if !c.Quiet {
		s.SetLog(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, c.Cmd+": "+format+"\n", args...)
		})
	}
	c.Store = s
	return s
}

// HandleSignals installs the graceful-shutdown protocol and returns
// the campaign context: the first SIGINT/SIGTERM cancels it — workers
// drain, finished artifacts flush, and Exit reports ExitInterrupted —
// while a second signal ends the process immediately.
func (c *Common) HandleSignals() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx, c.cancel = ctx, cancel
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		c.interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "%s: %v: draining workers and flushing artifacts (signal again to kill)\n",
			c.Cmd, sig)
		cancel()
		sig = <-ch
		fmt.Fprintf(os.Stderr, "%s: %v: killed\n", c.Cmd, sig)
		os.Exit(ExitInterrupted)
	}()
	return ctx
}

// Interrupted reports whether a shutdown signal cancelled the run.
func (c *Common) Interrupted() bool { return c.interrupted.Load() }

// Exit ends the process with the interruption-aware exit code: call it
// last in main, after Finish, so a drained run still reports it did
// not complete.
func (c *Common) Exit() {
	if c.Interrupted() {
		os.Exit(ExitInterrupted)
	}
}

// ObsFlags registers the profiling and metrics flags. defMetrics is
// the -metrics default ("" disables the artifact unless requested).
func (c *Common) ObsFlags(defMetrics string) {
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&c.MetricsPath, "metrics", defMetrics,
		"write the run's metrics artifact (JSON) to this file (empty = off)")
}

// TraceFlags registers the cycle-event trace flags -trace-events and
// -trace-cap.
func (c *Common) TraceFlags() {
	flag.StringVar(&c.TraceEvents, "trace-events", "",
		"write a Chrome trace-event JSON of one simulation to this file")
	flag.IntVar(&c.TraceCap, "trace-cap", 0,
		fmt.Sprintf("cycle-event ring capacity (0 = %d)", obs.DefaultRingCap))
}

// Start begins the instrumentation selected by the parsed flags: the
// CPU profile and the background pprof server. Call it once, right
// after flag.Parse.
func (c *Common) Start() {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			c.Fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			c.Fatalf("cpuprofile: %v", err)
		}
		c.cpuOut = f
	}
	if c.PprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(c.PprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", c.Cmd, err)
			}
		}()
	}
}

// Finish flushes the instrumentation: stops the CPU profile, writes
// the heap profile, and — when reg is non-nil and -metrics selected a
// path — writes the schema-validated metrics artifact. Last it closes
// the store OpenStore opened. Safe to call when Start was not.
func (c *Common) Finish(reg *obs.Registry) {
	if c.cpuOut != nil {
		pprof.StopCPUProfile()
		if err := c.cpuOut.Close(); err != nil {
			c.Fatalf("cpuprofile: %v", err)
		}
		c.cpuOut = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			c.Fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			c.Fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			c.Fatalf("memprofile: %v", err)
		}
	}
	if reg != nil && c.MetricsPath != "" {
		if c.Store != nil {
			// Provenance, published last: how this run obtained its
			// results (recomputed vs resumed), kept out of the
			// deterministic simulation metrics until the artifact is
			// about to be written.
			c.Store.Publish(reg)
		}
		if err := c.WriteMetrics(reg); err != nil {
			c.Fatalf("metrics: %v", err)
		}
		if !c.Quiet {
			fmt.Fprintf(os.Stderr, "%s: metrics artifact written to %s\n", c.Cmd, c.MetricsPath)
		}
	}
	if c.Store != nil {
		if err := c.Store.Close(); err != nil {
			c.Fatalf("store: %v", err)
		}
	}
}

// RunMeta describes this invocation for the metrics artifact.
func (c *Common) RunMeta() obs.RunMeta {
	return obs.RunMeta{
		Cmd:         c.Cmd,
		Args:        os.Args[1:],
		GoVersion:   runtime.Version(),
		StartedAt:   c.start.UTC().Format(time.RFC3339),
		WallSeconds: time.Since(c.start).Seconds(),
	}
}

// WriteMetrics serializes reg to the -metrics path, validating the
// encoded artifact against the embedded schema before anything touches
// disk — a command can never publish an artifact arlmetrics rejects.
// The write is atomic (temp + rename), so a crash mid-write leaves the
// previous artifact intact rather than a truncated JSON document.
func (c *Common) WriteMetrics(reg *obs.Registry) error {
	var buf bytes.Buffer
	if err := obs.EncodeArtifact(&buf, reg.Artifact(c.RunMeta())); err != nil {
		return err
	}
	if err := obs.ValidateMetrics(buf.Bytes()); err != nil {
		return fmt.Errorf("artifact does not validate against its own schema: %w", err)
	}
	return store.WriteFileAtomic(c.MetricsPath, buf.Bytes(), 0o644)
}

// Runner builds the experiment Runner the parsed flags describe,
// including the metrics registry when -metrics selected a path (read
// it back via Runner.Obs and hand it to Finish), the artifact store
// when -store-dir is set, retries, and the graceful-shutdown context
// when HandleSignals was called.
func (c *Common) Runner() *experiments.Runner {
	r := experiments.NewRunner()
	r.Scale = c.Scale
	r.MaxInsts = c.MaxInsts
	r.Parallel = c.Parallel
	r.Ctx = c.ctx
	if c.Timeout > 0 {
		r.WorkloadTimeout = c.Timeout
		r.Degrade = true
	}
	if !c.Quiet {
		r.Log = os.Stderr
	}
	if c.MetricsPath != "" {
		r.Obs = obs.NewRegistry()
		c.reg = r.Obs
	}
	if c.StoreDir != "" {
		r.Store = c.OpenStore()
		r.Resume = c.Resume
	}
	if c.Retries > 0 {
		r.Retry = resilience.Retry{Attempts: c.Retries + 1, Seed: c.Seed}
	}
	if c.Timeout > 0 || c.Retries > 0 {
		// Repeated-failure protection only matters once failures are
		// survivable events; pair the breaker with degradation.
		r.Breaker = resilience.NewBreaker(0)
		r.Degrade = true
	}
	r.Workloads = c.Workloads()
	return r
}

// Workloads resolves the -w selection (all workloads when unset); an
// unknown name is fatal.
func (c *Common) Workloads() []*workload.Workload {
	if c.Workload == "" {
		return workload.All()
	}
	w, ok := workload.ByName(c.Workload)
	if !ok {
		c.Fatalf("unknown workload %q (see internal/workload)", c.Workload)
	}
	return []*workload.Workload{w}
}

// Fatalf prints "<cmd>: <message>" to stderr and exits 1 — after
// running the same drain/flush path the SIGINT handler uses: the
// campaign context is cancelled so outstanding workers stop, and
// Finish flushes the profiles, the -metrics artifact and the store
// provenance gauges. A fatal mid-campaign therefore keeps the
// observability of every stage that did complete instead of dropping
// it on the floor. A failure inside the flush itself (Finish calls
// Fatalf on write errors) skips straight to the exit.
func (c *Common) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.Cmd+": "+format+"\n", args...)
	if c.failing.CompareAndSwap(false, true) {
		if c.cancel != nil {
			c.cancel()
		}
		c.Finish(c.reg)
	}
	if c.exit == nil { // zero-value Common, not built with New
		os.Exit(1)
	}
	c.exit(1)
}

// ObserveRegistry names the registry Fatalf's emergency flush should
// write to the -metrics artifact. Runner() installs its own registry
// automatically; commands that build a registry by hand (e.g. the
// single-run trace mode) call this so a fatal still flushes it.
func (c *Common) ObserveRegistry(reg *obs.Registry) { c.reg = reg }
