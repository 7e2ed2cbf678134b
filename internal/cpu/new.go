package cpu

import (
	"context"
	"strconv"

	"repro/internal/obs"
)

// Sim is a configured timing simulation: one machine Config plus the
// instrumentation attached at construction. Build one with New, then
// Run it over any number of traces — all mutable pipeline state lives
// per Run call, so a Sim is reusable. Concurrent Run calls on one Sim
// are safe only when the attached tracer is (obs.Ring is not).
type Sim struct {
	cfg    Config
	ctx    context.Context
	faults MemFaulter
	tracer obs.Tracer
}

// Option attaches instrumentation to a Sim.
type Option func(*Sim)

// WithContext cancels simulations cooperatively (checked every few
// thousand cycles).
func WithContext(ctx context.Context) Option {
	return func(s *Sim) { s.ctx = ctx }
}

// WithFaults perturbs the memory pipeline (see MemFaulter).
func WithFaults(f MemFaulter) Option {
	return func(s *Sim) { s.faults = f }
}

// WithTracer attaches a cycle-event tracer; every pipeline event of the
// run is emitted to it. obs.Nop is recognized and stripped at
// construction, so a Nop-traced simulation runs the exact
// uninstrumented code path (the <2% no-op overhead guarantee).
func WithTracer(t obs.Tracer) Option {
	return func(s *Sim) {
		if _, nop := t.(obs.Nop); nop {
			t = nil
		}
		s.tracer = t
	}
}

// New builds a simulation from cfg; the configuration must validate.
func New(cfg Config, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Config reports the machine configuration.
func (s *Sim) Config() Config { return s.cfg }

// Run simulates trace tr on this machine. The trace is only read, so
// one trace may back any number of concurrent Run calls.
func (sm *Sim) Run(tr *Trace) (*Result, error) {
	s, err := sm.newSimulator(tr)
	if err != nil {
		return nil, err
	}
	return s.simulate()
}

// Publish copies the result's counters and occupancy histograms into
// reg under the given labels, extended with the workload and config
// names; call once per result. It is the one place a simulation's
// metrics come from, so a result read back from the artifact store
// publishes exactly what the run that produced it would have.
func (r *Result) Publish(reg *obs.Registry, labels obs.Labels) {
	if reg == nil {
		return
	}
	l := labels.With(obs.Labels{"workload": r.Name, "config": r.Config.Name})
	if occ := r.Occupancy[0]; occ != nil {
		reg.Hist("sim_lsq_occupancy", "LSQ entries per cycle", l).ObserveCounts(occ)
	}
	if occ := r.Occupancy[1]; occ != nil {
		reg.Hist("sim_lvaq_occupancy", "LVAQ entries per cycle", l).ObserveCounts(occ)
	}
	reg.Counter("sim_cycles_total", "simulated cycles", l).Add(r.Cycles)
	reg.Counter("sim_insts_total", "committed instructions", l).Add(r.Insts)
	reg.Gauge("sim_ipc", "committed instructions per cycle", l).Set(r.IPC())
	reg.Counter("sim_arpt_mispredicts_total", "ARPT steering mispredictions", l).Add(r.ARPTMispredicts)
	reg.Counter("sim_recoveries_total", "completed detect-cancel-replay recoveries", l).Add(r.Recoveries)
	reg.Counter("sim_forwards_total", "store-to-load forwards", l).Add(r.Forwards)
	reg.Counter("sim_fast_forwards_total", "LVAQ offset-based fast forwards", l).Add(r.FastForwards)
	reg.Counter("sim_vp_used_total", "results supplied by the value predictor", l).Add(r.VPUsed)
	reg.Counter("sim_stall_rob_cycles_total", "dispatch cycles lost to a full ROB", l).Add(r.StallROB)
	reg.Counter("sim_stall_queue_cycles_total", "dispatch cycles lost to a full LSQ/LVAQ", l).Add(r.StallQueue)
	// One publish path for every cache: each first-level partition under
	// labels{cache, partition}, the shared L2 under partition "shared".
	parts, _ := r.Config.partitions()
	for i, st := range r.PartStats {
		name := "L1D"
		if i < len(parts) {
			name = parts[i].Name
		}
		st.Publish(reg, l.With(obs.Labels{"cache": name, "partition": strconv.Itoa(i)}))
	}
	r.L2Stats.Publish(reg, l.With(obs.Labels{"cache": "L2", "partition": "shared"}))
}
