package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config shapes one Service.
type Config struct {
	// Workers bounds the pool executing units (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the units waiting for a worker; a submission that
	// does not fit is rejected with 429 (0 = DefaultQueueCap). A unit a
	// worker holds, in-process or on a remote lease, takes no slot.
	QueueCap int
	// TenantCap bounds one tenant's queued+running units; a submission
	// that would exceed it is rejected with 429 (0 = QueueCap).
	TenantCap int
	// UnitTimeout, when positive, is the per-stage watchdog handed to
	// the runners (see experiments.Runner.WorkloadTimeout).
	UnitTimeout time.Duration
	// Retries re-attempts a failed unit up to this many times with
	// deterministic backoff keyed by the request seed.
	Retries int
	// BreakerThreshold trips a workload's circuit breaker after this
	// many consecutive unit failures (0 = resilience default).
	BreakerThreshold int
	// BreakerCooldown overrides the breaker's half-open probe cooldown,
	// counted in rejected arrivals (0 = resilience default).
	BreakerCooldown int
	// Journal, when non-nil, makes the service crash-restartable: every
	// accepted job and unit state transition is written ahead to it,
	// and the service stays not-ready (submissions rejected with
	// ErrNotReady, /readyz 503) until Recover has replayed it.
	Journal *journal.Journal
	// EventWriteTimeout bounds one write to an /events subscriber; a
	// subscriber that stops reading past its socket buffers is dropped
	// after this long instead of wedging the handler forever (0 =
	// DefaultEventWriteTimeout). A dropped subscriber re-attaches with
	// ?from=N.
	EventWriteTimeout time.Duration
	// LeaseTTL is the lease lifetime in lease-clock ticks (0 =
	// fleet.DefaultTTL). The lease clock advances only on TickLeases
	// calls, never on the wall clock or on lease traffic.
	LeaseTTL int
	// CoordinatorOnly starts zero in-process workers: every unit must be
	// pulled by a remote arlworker through the lease API.
	CoordinatorOnly bool
	// Log receives one line per notable event (nil for silence).
	Log io.Writer
}

// DefaultQueueCap bounds the unit queue when Config.QueueCap is zero.
const DefaultQueueCap = 1024

// DefaultEventWriteTimeout bounds one /events write when
// Config.EventWriteTimeout is zero.
const DefaultEventWriteTimeout = 30 * time.Second

// Submission rejections, mapped onto HTTP statuses by the handler.
var (
	ErrDraining  = errors.New("service: draining, not accepting campaigns")
	ErrQueueFull = errors.New("service: unit queue full")
	ErrQuota     = errors.New("service: tenant quota exceeded")
	// ErrNotReady rejects submissions between startup and the end of
	// journal replay; clients retry (the window is one Recover call).
	ErrNotReady = errors.New("service: recovering journal, not ready")
	// ErrJournal rejects a submission whose write-ahead record could
	// not be made durable: accepting it would break the crash-restart
	// guarantee, so the client must retry. A reply whose journal records
	// failed to become durable answers it too.
	ErrJournal = errors.New("service: journal write failed")
)

// unit is one queued piece of work.
type unit struct {
	job     *job
	index   int
	spec    UnitSpec
	key     string
	state   string // guarded by job.mu
	deduped bool
	errText string
	result  json.RawMessage
}

// job is one accepted campaign.
type job struct {
	id     string
	tenant string
	req    CampaignRequest
	units  []*unit

	ctx    context.Context
	cancel context.CancelFunc

	// admitted closes once Submit has settled the job: its record is
	// durable and it is listed, or admitErr says why it was refused.
	// Nil for a job replayed from the journal.
	admitted chan struct{}
	admitErr error

	mu       sync.Mutex
	events   []Event       // ascending by Seq; contiguous except after corrupt-journal recovery
	nextSeq  int           // next event sequence number (survives restarts)
	notify   chan struct{} // closed and replaced on every event
	pos      journal.Pos   // position of the job's latest journal record
	state    string
	drained  bool // ended by a server drain, not by its own units
	counts   map[string]int
	deduped  int
	finished bool
}

// Service is the sharded campaign engine behind arld.
type Service struct {
	cfg   Config
	store *store.Store
	reg   *obs.Registry

	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	queue     []*unit       // units waiting for a worker, oldest first
	queued    chan struct{} // closed and replaced whenever a unit is queued (see lease)
	admitting int           // units of submitted jobs waiting on their job record
	draining  bool
	jobs      map[string]*job
	nextJob   int
	// seen holds every unit key claimed by this server; its value is the
	// result of a unit with that key that finished done (nil until one
	// has), which answers later units with the key at admission.
	seen   map[string]json.RawMessage
	tenant map[string]int  // queued+running units per tenant
	idem   map[string]*job // tenant-scoped idempotency key -> job

	leases  *fleet.Table
	runners *Runners

	jrn   *journal.Journal
	ready atomic.Bool // false while the journal replays and once draining

	breaker *resilience.Breaker

	// testHook, when non-nil, runs before each attempt of a unit on an
	// in-process worker; an error it returns fails that attempt. Tests
	// use it to simulate worker crashes and slow units.
	testHook func(u *unit, attempt int) error
}

// New starts a Service: its in-process workers run until Drain.
func New(cfg Config, st *store.Store) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.TenantCap <= 0 {
		cfg.TenantCap = cfg.QueueCap
	}
	local := cfg.Workers
	if cfg.CoordinatorOnly {
		local = 0
	}
	reg := obs.NewRegistry()
	s := &Service{
		cfg:     cfg,
		store:   st,
		reg:     reg,
		stop:    make(chan struct{}),
		queued:  make(chan struct{}),
		jobs:    make(map[string]*job),
		seen:    make(map[string]json.RawMessage),
		tenant:  make(map[string]int),
		idem:    make(map[string]*job),
		jrn:     cfg.Journal,
		breaker: resilience.NewBreaker(cfg.BreakerThreshold),
		leases:  fleet.NewTable(cfg.LeaseTTL),
		runners: &Runners{Store: st, Obs: reg, Timeout: cfg.UnitTimeout},
	}
	if cfg.BreakerCooldown > 0 {
		s.breaker.SetCooldown(cfg.BreakerCooldown)
	}
	if s.jrn != nil {
		s.jrn.OnFailure(s.journalError)
	}
	// A journal-less service has nothing to replay; a journaled one
	// stays not-ready until Recover walks the log.
	s.ready.Store(cfg.Journal == nil)
	if local > 0 {
		// The in-process workers are ordinary fleet workers whose lease
		// source is this service, called directly. Their leases are
		// pinned, so a heartbeat only carries a job's cancellation; a
		// renew is a map lookup, and a short period keeps a cancel from
		// waiting out a retry backoff.
		w := &fleet.Worker{ID: "arld", Source: localSource{s}, Execute: s.executeLocal,
			Parallel: local, RenewEvery: 50 * time.Millisecond, Log: cfg.Log}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(context.Background())
		}()
	}
	return s
}

// Ready reports whether the service is accepting submissions: journal
// replay has finished (or no journal is configured) and Drain has not
// begun. /readyz serves this; /healthz stays true the whole time.
func (s *Service) Ready() bool { return s.ready.Load() }

// Registry exposes the service metrics registry (for /metrics and
// tests).
func (s *Service) Registry() *obs.Registry { return s.reg }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "arld: "+format+"\n", args...)
	}
}

// expand resolves the request into concrete, validated units: explicit
// units first, then the workloads × configs grid.
func expand(req CampaignRequest) ([]UnitSpec, error) {
	units := make([]UnitSpec, 0, len(req.Units))
	for i, u := range req.Units {
		if u.Kind == "" {
			u.Kind = KindSimulate
		}
		w, ok := workload.ByName(u.Workload)
		if !ok {
			return nil, fmt.Errorf("unit %d: unknown workload %q", i, u.Workload)
		}
		// Canonicalize: the unit key embeds the workload name, so "li"
		// and "130.li" must not mint two keys for one simulation.
		u.Workload = w.Name
		switch u.Kind {
		case KindSimulate, KindExplore:
			if u.Config == nil {
				return nil, fmt.Errorf("unit %d: %s unit without a config", i, u.Kind)
			}
			if err := u.Config.Validate(); err != nil {
				return nil, fmt.Errorf("unit %d: %v", i, err)
			}
			if u.ARPT < 0 {
				return nil, fmt.Errorf("unit %d: negative ARPT size %d", i, u.ARPT)
			}
			// The ARPT size names the kind, so one simulation has one
			// dedupe key: the default (0) is the plain simulation.
			u.Kind = KindSimulate
			if u.ARPT > 0 {
				u.Kind = KindExplore
			}
		case KindFaultCampaign:
			if u.Config == nil || u.Runs <= 0 || u.Faults <= 0 {
				return nil, fmt.Errorf("unit %d: faultcampaign unit needs config, runs and faults", i)
			}
		default:
			return nil, fmt.Errorf("unit %d: unknown kind %q", i, u.Kind)
		}
		units = append(units, u)
	}
	if len(req.Configs) > 0 {
		names := req.Workloads
		if len(names) == 0 {
			for _, w := range workload.All() {
				names = append(names, w.Name)
			}
		}
		for _, name := range names {
			w, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			for _, cn := range req.Configs {
				cfg, err := ParseConfigName(cn)
				if err != nil {
					return nil, err
				}
				units = append(units, UnitSpec{Kind: KindSimulate, Workload: w.Name, Config: &cfg})
			}
		}
	}
	if len(units) == 0 {
		return nil, errors.New("campaign holds no units")
	}
	return units, nil
}

// Submit validates and enqueues one campaign. The rejection errors
// (ErrDraining, ErrNotReady, ErrJournal, ErrQueueFull, ErrQuota) map
// onto 503/429; anything else is a 400-shaped validation failure. A
// request repeating an already-seen idempotency key returns the
// original job's status instead of a new job.
//
// A unit whose key already finished on this server is answered here,
// from the index in s.seen: it ends done and deduped without a worker.
// Only the other units, the misses, count against the tenant quota and
// QueueCap and are enqueued.
//
// Write-ahead: the job record is written under s.mu, which orders it
// with the ID allocation and idempotency registration, and Submit waits
// for it to become durable after unlocking. The answered units' done
// events, and the job's end record when every unit was answered, share
// its batch. Only then is the job listed and its misses runnable; when
// the batch fails, the submission is rejected rather than accepting
// work a crash would lose.
func (s *Service) Submit(req CampaignRequest) (JobStatus, error) {
	specs, err := expand(req)
	if err != nil {
		return JobStatus{}, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	idemKey := ""
	if req.IdempotencyKey != "" {
		idemKey = tenant + "\x00" + req.IdempotencyKey
	}
	// The job is built before its ID is allocated, so its unit keys are
	// ready for the lookup under s.mu.
	j := newJob("", tenant, req, specs)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(tenant, "draining")
		return JobStatus{}, ErrDraining
	}
	if !s.ready.Load() {
		s.mu.Unlock()
		s.reject(tenant, "not-ready")
		return JobStatus{}, ErrNotReady
	}
	if idemKey != "" {
		if orig, ok := s.idem[idemKey]; ok {
			s.counter("service_idempotent_replays_total",
				"submissions answered by an existing job via idempotency key",
				obs.Labels{"tenant": tenant}).Inc()
			s.mu.Unlock()
			s.logf("job %s: idempotent replay for tenant %q", orig.id, tenant)
			// A repeat that arrives while the first submission waits on
			// its job record gets that submission's outcome.
			if orig.admitted != nil {
				<-orig.admitted
			}
			if orig.admitErr != nil {
				return JobStatus{}, orig.admitErr
			}
			return s.durableStatus(orig), nil
		}
	}
	var misses []*unit
	for _, u := range j.units {
		if s.seen[u.key] == nil {
			misses = append(misses, u)
		}
	}
	n, hits := len(misses), len(specs)-len(misses)
	if n > 0 && s.tenant[tenant]+n > s.cfg.TenantCap {
		s.mu.Unlock()
		s.reject(tenant, "quota")
		return JobStatus{}, fmt.Errorf("%w: tenant %q has %d units in flight, cap %d",
			ErrQuota, tenant, s.tenant[tenant], s.cfg.TenantCap)
	}
	if queued := len(s.queue) + s.admitting; n > 0 && queued+n > s.cfg.QueueCap {
		s.mu.Unlock()
		s.reject(tenant, "queue")
		return JobStatus{}, fmt.Errorf("%w: %d queued, %d requested, cap %d",
			ErrQueueFull, queued, n, s.cfg.QueueCap)
	}
	j.id = fmt.Sprintf("c%04d", s.nextJob+1)
	reqEnc, err := json.Marshal(req)
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("encoding request: %v", err)
	}
	recs := []journal.Record{{
		T: journal.TypeJob, Job: j.id, Tenant: tenant,
		IdemKey: req.IdempotencyKey, Req: reqEnc, Version: experiments.StoreVersion,
	}}
	// The job is not listed yet, so nothing else reads it: its answered
	// units change state without j.mu, as Recover's replay does.
	for _, u := range j.units {
		if result := s.seen[u.key]; result != nil {
			recs = append(recs, j.answer(u, result))
		}
	}
	if n == 0 {
		j.finished, j.state = true, JobComplete
		recs = append(recs, journal.Record{T: journal.TypeEnd, Job: j.id, State: j.state})
	}
	pos, err := s.write(recs...)
	if err != nil {
		s.mu.Unlock()
		s.reject(tenant, "journal")
		return JobStatus{}, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	s.nextJob++
	j.pos = pos
	j.admitted = make(chan struct{})
	if idemKey != "" {
		s.idem[idemKey] = j
	}
	if n > 0 {
		s.tenant[tenant] += n
	}
	s.admitting += n
	s.mu.Unlock()

	err = s.durable(pos)
	s.mu.Lock()
	s.admitting -= n
	if err != nil {
		if idemKey != "" {
			delete(s.idem, idemKey)
		}
		s.releaseLocked(tenant, n)
		s.mu.Unlock()
		j.admitErr = fmt.Errorf("%w: %v", ErrJournal, err)
		close(j.admitted)
		s.reject(tenant, "journal")
		s.logf("job %s: rejected, journal append failed: %v", j.id, err)
		return JobStatus{}, j.admitErr
	}
	s.jobs[j.id] = j
	for _, u := range j.units {
		s.counter("service_units_total", "campaign units accepted",
			obs.Labels{"tenant": tenant, "kind": u.spec.Kind}).Inc()
	}
	if hits > 0 {
		s.counter("service_units_deduped_total", "units satisfied by work another unit already did",
			obs.Labels{"tenant": tenant}).Add(uint64(hits))
	}
	// A Drain that began during the wait has already taken the queue:
	// the job's misses end interrupted here instead.
	drained := s.draining
	if !drained && n > 0 {
		s.enqueueLocked(misses...)
	}
	s.counter("service_jobs_total", "campaigns accepted", obs.Labels{"tenant": tenant}).Inc()
	s.mu.Unlock()
	close(j.admitted)
	if drained {
		for _, u := range misses {
			s.interrupt(u)
		}
	}

	s.logf("job %s: %d units from tenant %q, %d answered at admission", j.id, len(specs), tenant, hits)
	if n == 0 {
		s.logf("job %s: %s", j.id, JobComplete)
	}
	return s.durableStatus(j), nil
}

// answer ends a unit of a job being admitted done and deduped with the
// result its key already has, returning the event's journal record. A
// unit answered this way was never queued or run: its stream is this
// one done event.
func (j *job) answer(u *unit, result json.RawMessage) journal.Record {
	j.counts[u.state]--
	u.state, u.deduped, u.result = StateDone, true, result
	j.counts[StateDone]++
	j.deduped++
	e := j.emitLocked(Event{Job: j.id, Unit: u.index, State: StateDone, Deduped: true})
	return eventRecord(e, result)
}

// write buffers records in the journal (a no-op without one) and
// returns the position durable waits on. It does no I/O, so callers
// hold their locks across it: that keeps the journal's order the order
// in which the state changes happen. A failure is counted and logged.
func (s *Service) write(recs ...journal.Record) (journal.Pos, error) {
	if s.jrn == nil {
		return journal.Pos{}, nil
	}
	pos, err := s.jrn.Write(recs...)
	if err != nil {
		s.journalError(err)
	}
	return pos, err
}

// durable waits until the journal records at pos are durable. Every
// effect that leaves the process waits here first, with no lock held:
// a reply, an /events line, a remote grant. Only a job record and a
// remote grant treat a failure as fatal. Every other caller serves
// anyway: the record at stake is an event, and losing it means the
// unit recomputes through the store memo after a crash. The journal's
// failure hook has counted and logged the failed batch already.
func (s *Service) durable(pos journal.Pos) error {
	if s.jrn == nil {
		return nil
	}
	return s.jrn.Sync(pos)
}

// flush makes every journal record written so far durable, with
// durable's rules.
func (s *Service) flush() error {
	if s.jrn == nil {
		return nil
	}
	return s.jrn.Flush()
}

// journalError counts and logs a failed journal write, or a failed
// batch through the journal's failure hook: once per failure, however
// many waiters the batch had.
func (s *Service) journalError(err error) {
	s.counter("service_journal_errors_total", "journal writes and syncs that failed", nil).Inc()
	s.logf("journal: %v", err)
}

// releaseLocked returns n units of tenant's quota. Callers hold s.mu.
func (s *Service) releaseLocked(tenant string, n int) {
	s.tenant[tenant] -= n
	if s.tenant[tenant] <= 0 {
		delete(s.tenant, tenant)
	}
}

func (s *Service) counter(name, help string, labels obs.Labels) *obs.Counter {
	return s.reg.Counter(name, help, labels)
}

func (s *Service) gauge(name, help string) *obs.Gauge {
	return s.reg.Gauge(name, help, nil)
}

func (s *Service) reject(tenant, reason string) {
	s.counter("service_rejected_total", "campaign submissions rejected",
		obs.Labels{"tenant": tenant, "reason": reason}).Inc()
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists job statuses, newest first.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id > jobs[k].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	return out
}

// durableStatus is the job's status once every journal record it
// reflects has been flushed: what a reply may carry. By then the job
// record is durable, so a failure here is an event record's, which is
// not fatal.
func (s *Service) durableStatus(j *job) JobStatus {
	st := s.status(j)
	s.durable(j.journaled())
	return st
}

// status snapshots one job's wire status.
func (s *Service) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		Units:    len(j.units),
		Queued:   j.counts[StateQueued],
		Running:  j.counts[StateRunning],
		Done:     j.counts[StateDone],
		Failed:   j.counts[StateFailed],
		Canceled: j.counts[StateCanceled],
		Deduped:  j.deduped,
	}
}

// results snapshots the full per-unit outcome.
func (s *Service) results(j *job) ResultsResponse {
	resp := ResultsResponse{Status: s.status(j)}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, u := range j.units {
		resp.Units = append(resp.Units, UnitStatus{
			Index: u.index, Spec: u.spec, State: u.state,
			Deduped: u.deduped, Error: u.errText, Result: u.result,
		})
	}
	return resp
}

// ExecuteUnit dispatches one unit spec through r — the single
// execution switch behind every worker (see Runners.Execute), so a
// unit computes identically wherever it lands (and dedupes
// byte-identically through whichever store backs the runner).
func ExecuteUnit(r *experiments.Runner, spec UnitSpec) (any, error) {
	w, ok := workload.ByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	switch spec.Kind {
	case KindSimulate, KindExplore:
		return r.SimulateConfigARPT(w, spec.ARPT, *spec.Config)
	case KindFaultCampaign:
		return r.FaultCampaign(w, spec.Seed, spec.Runs, spec.Faults, *spec.Config)
	default:
		return nil, fmt.Errorf("unknown unit kind %q", spec.Kind)
	}
}

// runnerKey classes runners by the campaign shaping that participates
// in artifact identity: two requests with the same scale and budget
// share one Runner and therefore its in-process memos.
type runnerKey struct {
	scale    int
	maxInsts uint64
}

// Runners is the runner pool behind a worker's Execute: one Runner per
// (scale, maxInsts) class, built on first use, all sharing one store
// (the cross-restart, cross-client cache tier) and one registry.
// arld's in-process workers and arlworker both execute through one.
type Runners struct {
	Store   *store.Store
	Obs     *obs.Registry
	Timeout time.Duration // per-stage watchdog (experiments.Runner.WorkloadTimeout)

	mu    sync.Mutex
	byKey map[runnerKey]*experiments.Runner
}

func (p *Runners) get(scale int, maxInsts uint64) *experiments.Runner {
	k := runnerKey{scale, maxInsts}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.byKey[k]; r != nil {
		return r
	}
	r := experiments.NewRunner()
	r.Scale, r.MaxInsts, r.Obs, r.WorkloadTimeout = scale, maxInsts, p.Obs, p.Timeout
	if p.Store != nil {
		r.Store, r.Resume = p.Store, true
	}
	if p.byKey == nil {
		p.byKey = make(map[runnerKey]*experiments.Runner)
	}
	p.byKey[k] = r
	return r
}

// Execute runs one leased unit through ExecuteUnit: the fleet.Execute
// of every worker.
func (p *Runners) Execute(_ context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
	var spec UnitSpec
	if err := json.Unmarshal(g.Spec, &spec); err != nil {
		return nil, fmt.Errorf("bad unit spec: %w", err)
	}
	res, err := ExecuteUnit(p.get(g.Scale, g.MaxInsts), spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// executeLocal is the in-process workers' Execute: the test hook, then
// the service's runner pool.
func (s *Service) executeLocal(ctx context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
	if s.testHook != nil {
		j, _ := s.Job(g.Job)
		if err := s.testHook(j.units[g.Unit], fleet.Attempt(ctx)); err != nil {
			return nil, err
		}
	}
	return s.runners.Execute(ctx, g)
}

// claim records a unit key as computed-by-this-process, reporting
// whether this caller was first.
func (s *Service) claim(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[key]; ok {
		return false
	}
	s.seen[key] = nil
	return true
}

// doneLocked records that a unit with key finished done with result:
// the key counts as claimed, and a result that can answer a later unit
// at admission is indexed. An empty or null result (a remote worker's
// empty completion) answers nothing, so that unit recomputes. Callers
// hold s.mu.
func (s *Service) doneLocked(key string, result json.RawMessage) {
	if len(result) > 0 && string(result) != "null" {
		s.seen[key] = result
	} else if _, ok := s.seen[key]; !ok {
		s.seen[key] = nil
	}
}

// transition moves a unit between non-terminal states and journals
// and emits the event, returning the event record's position. A
// grant's running event carries the lease's token and worker and is
// written ahead: when its write fails nothing changes, and the error
// is returned so the grant can be retracted.
func (s *Service) transition(u *unit, state string, l *fleet.Lease) (journal.Pos, error) {
	j := u.job
	j.mu.Lock()
	defer j.mu.Unlock()
	e := Event{Seq: j.nextSeq, Job: j.id, Unit: u.index, State: state}
	if err := s.journalEventLocked(j, e, nil, l); err != nil && l != nil {
		return journal.Pos{}, err
	}
	j.counts[u.state]--
	u.state = state
	j.counts[state]++
	j.emitLocked(e)
	return j.pos, nil
}

// journalEventLocked writes one event record of j to the journal, with
// the grant's token and worker when l is non-nil, followed by any more
// records in the same batch, and records its position on j. Called
// under j.mu: the journal must record events in the order their
// sequence numbers were assigned. The write is memory-only; whoever
// lets the event leave the process (an /events line, a reply, a remote
// grant) first waits for j.pos to be durable. A write failure is
// counted, logged and returned; only a grant treats it as fatal. A
// crash before the record is durable replays the unit from its
// previous state, and the store memo absorbs the recompute.
func (s *Service) journalEventLocked(j *job, e Event, result json.RawMessage, l *fleet.Lease, more ...journal.Record) error {
	if s.jrn == nil {
		return nil
	}
	rec := eventRecord(e, result)
	if l != nil {
		rec.Token, rec.Worker = l.Token, l.Worker
	}
	pos, err := s.write(append([]journal.Record{rec}, more...)...)
	if err == nil {
		j.pos = pos
	}
	return err
}

// eventRecord is the journal record of event e, carrying result.
func eventRecord(e Event, result json.RawMessage) journal.Record {
	return journal.Record{
		T: journal.TypeEvent, Job: e.Job, Seq: e.Seq, Unit: e.Unit,
		State: e.State, Deduped: e.Deduped, Error: e.Error, Result: result,
	}
}

// finish moves a unit to a terminal state, releases its tenant quota,
// emits the event, and finalizes the job when it was the last one. It
// returns the event record's position.
func (s *Service) finish(u *unit, state, errText string, result json.RawMessage) journal.Pos {
	j := u.job
	j.mu.Lock()
	j.counts[u.state]--
	u.state = state
	u.errText = errText
	u.result = result
	j.counts[state]++
	if u.deduped && state == StateDone {
		j.deduped++
	}
	e := j.emitLocked(Event{Job: j.id, Unit: u.index, State: state, Deduped: u.deduped, Error: errText})
	terminal := j.settledLocked()
	var end []journal.Record
	if terminal && !j.finished {
		j.finished = true
		switch {
		case j.drained:
			j.state = JobInterrupted
		case j.ctx.Err() != nil:
			j.state = JobCanceled
		default:
			j.state = j.outcomeLocked()
		}
		end = append(end, journal.Record{T: journal.TypeEnd, Job: j.id, State: j.state})
	}
	// The result payload rides in the journal record (not the event
	// wire form), so /results serves finished units after a restart
	// without re-executing them. The last unit's event and the job's
	// end record share one batch, the end record second.
	s.journalEventLocked(j, e, result, nil, end...)
	final, pos := j.state, j.pos
	j.mu.Unlock()

	s.mu.Lock()
	s.releaseLocked(j.tenant, 1)
	if state == StateDone {
		s.doneLocked(u.key, result)
	}
	s.mu.Unlock()
	if terminal {
		s.logf("job %s: %s", j.id, final)
	}
	return pos
}

// newJob builds an accepted campaign with every unit queued.
func newJob(id, tenant string, req CampaignRequest, specs []UnitSpec) *job {
	j := &job{
		id:     id,
		tenant: tenant,
		req:    req,
		notify: make(chan struct{}),
		state:  StateRunning,
		counts: map[string]int{StateQueued: len(specs)},
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	for i, spec := range specs {
		j.units = append(j.units, &unit{
			job: j, index: i, spec: spec,
			key:   spec.key(req.Scale, req.MaxInsts),
			state: StateQueued,
		})
	}
	return j
}

// settledLocked reports whether every unit reached a terminal state.
// Callers hold j.mu.
func (j *job) settledLocked() bool {
	return j.counts[StateDone]+j.counts[StateFailed]+j.counts[StateCanceled] == len(j.units)
}

// outcomeLocked is the terminal state its unit counts give a settled
// job. Callers hold j.mu.
func (j *job) outcomeLocked() string {
	switch {
	case j.counts[StateFailed] > 0:
		return JobFailed
	case j.counts[StateCanceled] > 0:
		return JobCanceled
	}
	return JobComplete
}

// emitLocked stamps the next sequence number on the event, appends it
// and wakes the streamers, returning the stamped event. Callers hold
// j.mu. Sequence numbers continue across restarts (Recover seeds
// nextSeq past the replayed events), which is what keeps a client's
// ?from=N resume point valid on the restarted server.
func (j *job) emitLocked(e Event) Event {
	e.Seq = j.nextSeq
	j.nextSeq++
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	return e
}

// journaled is the position of the job's latest journal record. Read
// after a snapshot of the job, it covers every record the snapshot
// reflects.
func (j *job) journaled() journal.Pos {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pos
}

// eventsFrom returns the events with sequence number ≥ from, plus a
// channel that closes when more arrive and whether the job is
// terminal. The slice is ascending by Seq (contiguous except when
// corrupt-journal recovery dropped records), so the cut point is a
// binary search, not an index.
func (j *job) eventsFrom(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq >= from })
	var evs []Event
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.notify, j.finished
}

// RecoverStats summarizes one journal recovery.
type RecoverStats struct {
	Jobs     int // jobs reconstructed from the journal
	Finished int // of those, jobs already terminal (nothing to run)
	Requeued int // incomplete units re-enqueued
	Replayed int // intact journal records applied
	Corrupt  int // journal records dropped by checksum/framing
	Torn     int // torn segment tails (crash-mid-append signatures)
}

// Recover replays the journal and restores the service to the state
// the previous process crashed out of: every accepted job exists again
// with its event history (same sequence numbers), finished units keep
// their results, and incomplete units are re-enqueued — they recompute
// through the store memo, so no finished work re-executes. Submissions
// are rejected with ErrNotReady until Recover returns; call it once,
// after New, before (or concurrently with) serving traffic. With no
// journal configured it only flips the service ready.
func (s *Service) Recover() (RecoverStats, error) {
	var rs RecoverStats
	if s.jrn == nil {
		s.ready.Store(true)
		return rs, nil
	}
	// Fold the log into per-job state: the last writer wins record by
	// record, exactly the order the previous process applied them.
	type replayJob struct {
		rec    journal.Record
		events []journal.Record
		end    *journal.Record
	}
	byJob := make(map[string]*replayJob)
	var maxToken uint64
	stats, err := s.jrn.Replay(func(r journal.Record) {
		// Leases die with the coordinator (their units replay as Running
		// and requeue below), but the fencing high-water mark must not: a
		// pre-crash zombie's token has to stay stale against every
		// post-restart grant. Grants are journaled as running events
		// carrying their token; older journals hold lease records.
		maxToken = max(maxToken, r.Token)
		switch r.T {
		case journal.TypeJob:
			byJob[r.Job] = &replayJob{rec: r}
		case journal.TypeEvent:
			if rj := byJob[r.Job]; rj != nil {
				rj.events = append(rj.events, r)
			}
		case journal.TypeEnd:
			if rj := byJob[r.Job]; rj != nil {
				end := r
				rj.end = &end
			}
		}
	})
	if err != nil {
		return rs, err
	}
	s.leases.SetFence(maxToken)
	rs.Replayed, rs.Corrupt, rs.Torn = stats.Records, stats.Corrupt, stats.Torn
	s.counter("service_journal_replayed_records_total", "journal records replayed intact at startup", nil).Add(uint64(stats.Records))
	s.counter("service_journal_corrupt_records_total", "journal records dropped as corrupt at startup", nil).Add(uint64(stats.Corrupt))
	if stats.Torn > 0 {
		s.counter("service_journal_torn_tails_total", "torn journal segment tails (crash mid-append)", nil).Add(uint64(stats.Torn))
	}

	ids := make([]string, 0, len(byJob))
	for id := range byJob {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var requeue []*unit // units to re-enqueue, in job order
	var reset []*unit   // of those, units that were mid-run at the crash
	s.mu.Lock()
	for _, id := range ids {
		rj := byJob[id]
		var req CampaignRequest
		if err := json.Unmarshal(rj.rec.Req, &req); err != nil {
			s.logf("recover: job %s: undecodable request, dropping: %v", id, err)
			continue
		}
		specs, err := expand(req)
		if err != nil {
			s.logf("recover: job %s: request no longer expands, dropping: %v", id, err)
			continue
		}
		tenant := rj.rec.Tenant
		if tenant == "" {
			tenant = "anonymous"
		}
		j := newJob(id, tenant, req, specs)
		// Replay the event history in sequence order. Corruption may
		// have dropped records, so later events always win: each one
		// carries the unit's full state at that point.
		sort.Slice(rj.events, func(a, b int) bool { return rj.events[a].Seq < rj.events[b].Seq })
		for _, ev := range rj.events {
			if ev.Unit < 0 || ev.Unit >= len(j.units) {
				continue
			}
			u := j.units[ev.Unit]
			j.counts[u.state]--
			u.state = ev.State
			j.counts[ev.State]++
			u.deduped = ev.Deduped
			u.errText = ev.Error
			if len(ev.Result) > 0 {
				u.result = ev.Result
			}
			if ev.State == StateDone && ev.Deduped {
				j.deduped++
			}
			j.events = append(j.events, Event{
				Seq: ev.Seq, Job: id, Unit: ev.Unit, State: ev.State,
				Deduped: ev.Deduped, Error: ev.Error,
			})
			if ev.Seq >= j.nextSeq {
				j.nextSeq = ev.Seq + 1
			}
		}
		if rj.end != nil || j.settledLocked() {
			j.finished = true
			j.state = j.outcomeLocked()
			if rj.end != nil {
				j.state = rj.end.State
			}
			rs.Finished++
		} else {
			n := 0
			for _, u := range j.units {
				switch u.state {
				case StateQueued:
					requeue = append(requeue, u)
					n++
				case StateRunning:
					// Mid-run at the crash: the attempt died with the
					// process. Re-queue; transition() below emits (and
					// journals) the queued event so stream followers see
					// the reset.
					requeue = append(requeue, u)
					reset = append(reset, u)
					n++
				}
			}
			s.tenant[tenant] += n
		}
		// Done units' results answer later units with their keys at
		// admission, as they did before the restart, but only when this
		// code version produced them: like the store's keys, a result of
		// another version never answers new work. Its keys count as
		// claimed only, and new units with them run again.
		current := rj.rec.Version == experiments.StoreVersion
		for _, u := range j.units {
			if u.state == StateDone {
				result := u.result
				if !current {
					result = nil
				}
				s.doneLocked(u.key, result)
			}
		}
		if rj.rec.IdemKey != "" {
			s.idem[tenant+"\x00"+rj.rec.IdemKey] = j
		}
		s.jobs[id] = j
		if digits, ok := strings.CutPrefix(id, "c"); ok {
			if num, err := strconv.Atoi(digits); err == nil && num > s.nextJob {
				s.nextJob = num
			}
		}
		rs.Jobs++
	}
	s.mu.Unlock()

	for _, u := range reset {
		s.transition(u, StateQueued, nil)
	}
	rs.Requeued = len(requeue)
	s.counter("service_journal_recovered_jobs_total", "jobs reconstructed from the journal", nil).Add(uint64(rs.Jobs))
	s.counter("service_units_requeued_total", "incomplete units re-enqueued after recovery", nil).Add(uint64(rs.Requeued))
	s.logf("recovered %d jobs (%d finished) from journal: %d records, %d corrupt, %d torn; re-enqueueing %d units",
		rs.Jobs, rs.Finished, rs.Replayed, rs.Corrupt, rs.Torn, rs.Requeued)

	// The queued events of the reset units are durable before any
	// effect leaves. The whole backlog goes on the queue at once, past
	// QueueCap if need be (Submit then answers 429 until workers catch
	// up), and only then does the service open.
	s.flush()
	s.mu.Lock()
	s.enqueueLocked(requeue...)
	s.mu.Unlock()
	s.ready.Store(true)
	return rs, nil
}

// Drain gracefully shuts the service down: new submissions get
// ErrDraining, units on in-process workers run to completion (their
// artifacts flush through the store's atomic writes), and still-queued
// units and units on remote leases end as canceled with their jobs
// marked interrupted. Blocks until the in-process workers are idle.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	queued := len(s.queue)
	s.mu.Unlock()
	// Readiness drops the instant draining starts, so a load balancer
	// stops routing while in-flight units finish.
	s.ready.Store(false)
	s.logf("draining: %d units leased, %d queued", s.leases.Active(), queued)
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	drained := s.queue
	s.queue = nil
	s.gauge("service_queue_depth", "units waiting for a worker").Set(0)
	s.mu.Unlock()
	for _, u := range drained {
		s.interrupt(u)
	}
	// Outstanding remote leases are canceled too: their workers'
	// completions will find no lease (404) and move on, and the units
	// end interrupted like drained queued ones. Finished remote work
	// already flushed through the workers' stores.
	for _, l := range s.leases.DrainAll() {
		s.abandon(l.Unit.(*unit))
		s.interrupt(l.Unit.(*unit))
	}
	s.leaseGauges()
	// Local completions and grants do not wait on the journal; their
	// records, and the interruptions above, become durable here.
	s.flush()
}

// interrupt cancels a unit the draining service will not run; its job
// ends interrupted.
func (s *Service) interrupt(u *unit) {
	u.job.mu.Lock()
	u.job.drained = true
	u.job.mu.Unlock()
	s.finish(u, StateCanceled, "server draining", nil)
}

// WriteMetrics renders the service metrics — queue and worker gauges,
// per-tenant counters, every simulation's published metrics, and the
// shared store's counters — in the obs text form.
func (s *Service) WriteMetrics(w io.Writer) error {
	// The store publishes by *adding* its totals, so each scrape
	// merges into a fresh scratch registry rather than double-counting
	// the live one.
	scratch := obs.NewRegistry()
	if err := scratch.ImportSamples(s.reg.Snapshot()); err != nil {
		return err
	}
	if s.store != nil {
		s.store.Publish(scratch)
	}
	return obs.WriteText(w, scratch.Snapshot())
}
