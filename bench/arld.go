package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
)

// arldConfigs is the 40-point configuration grid of the arld
// workloads: (N+0) for N=1..4, and (N+M,penP) for N=1..4, M=1..3 and
// P in {1, 4, 16}.
func arldConfigs() []string {
	var out []string
	for n := 1; n <= 4; n++ {
		out = append(out, fmt.Sprintf("(%d+0)", n))
	}
	for n := 1; n <= 4; n++ {
		for m := 1; m <= 3; m++ {
			for _, p := range []int{1, 4, 16} {
				out = append(out, fmt.Sprintf("(%d+%d,pen%d)", n, m, p))
			}
		}
	}
	return out
}

// arldJobs splits the workloads × configs grid into campaigns of
// perJob units, each over one workload.
func arldJobs(names, cfgs []string, perJob int, n uint64) []service.CampaignRequest {
	var jobs []service.CampaignRequest
	for _, w := range workloads(names) {
		for s := 0; s+perJob <= len(cfgs); s += perJob {
			jobs = append(jobs, service.CampaignRequest{
				Tenant: "bench", MaxInsts: n,
				Workloads: []string{w.Name}, Configs: cfgs[s : s+perJob],
			})
		}
	}
	return jobs
}

type arldMode int

const (
	arldLocal arldMode = iota // in-process workers, cold store
	arldWarm                  // restart on a populated store, replay every job
	arldFleet                 // coordinator only, two leased fleet.Workers
)

// arldBench serves one arld instance in process: service.New with a
// journal and store on disk, behind an httptest server on loopback,
// loaded by closed-loop clients that each submit their next job when
// the previous one returns.
type arldBench struct {
	mode arldMode
	n    uint64
	jobs []service.CampaignRequest
	dir  string
	snap map[string][]byte // arldWarm: the journal right after population

	stores []*store.Store
	jrn    *journal.Journal
	svc    *service.Service
	srv    *httptest.Server
	stop   context.CancelFunc
	wg     sync.WaitGroup
	fleet  []*fleet.Worker
	conns  []*http.Transport
}

func setupArld(mode arldMode, names, cfgs []string, perJob int, n uint64) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		a := &arldBench{mode: mode, n: n, jobs: arldJobs(names, cfgs, perJob, n)}
		if err := a.open(e); err != nil {
			a.close()
			return nil, err
		}
		if mode != arldWarm {
			return a, nil
		}
		// Populate the store and journal once; every round restarts
		// from this state.
		a.campaign(e, -1, "populate")
		if _, failed, first := e.gold.counts(); failed > 0 {
			a.close()
			return nil, errors.New("populating arld: " + first)
		}
		a.shutdown()
		snap, err := readTree(filepath.Join(a.dir, "journal"))
		if err != nil {
			a.close()
			return nil, err
		}
		a.snap = snap
		return a, nil
	}
}

// open starts a service over the instance's directory, creating the
// directory on first use.
func (a *arldBench) open(e *env) error {
	if a.dir == "" {
		dir, err := os.MkdirTemp(e.work, "arld-")
		if err != nil {
			return err
		}
		a.dir = dir
	}
	st, err := store.OpenFS(filepath.Join(a.dir, "store"), e.fs("store"))
	if err != nil {
		return err
	}
	a.stores = []*store.Store{st}
	a.jrn, err = journal.OpenFS(e.fs("journal"), filepath.Join(a.dir, "journal"))
	if err != nil {
		return err
	}
	a.svc = service.New(service.Config{Workers: 2, Journal: a.jrn, CoordinatorOnly: a.mode == arldFleet}, st)
	s0 := e.tr.now()
	rs, err := a.svc.Recover()
	if err != nil {
		return fmt.Errorf("recovering arld: %w", err)
	}
	e.tr.add(span{Layer: "journal", Name: "replay", Start: s0})
	e.tr.count("journal.replayed_records", float64(rs.Replayed))
	a.srv = httptest.NewServer(traceHandler(e.tr, a.svc.Handler()))
	if a.mode == arldFleet {
		return a.startFleet(e)
	}
	return nil
}

// startFleet runs two fleet workers, each with its own store and
// Runner as separate arlworker processes would have.
func (a *arldBench) startFleet(e *env) error {
	ctx, cancel := context.WithCancel(context.Background())
	a.stop = cancel
	for i := 0; i < 2; i++ {
		st, err := store.OpenFS(filepath.Join(a.dir, fmt.Sprintf("worker%d", i)), e.fs("store"))
		if err != nil {
			return err
		}
		a.stores = append(a.stores, st)
		r := experiments.NewRunner()
		r.MaxInsts = a.n
		r.Store, r.Resume = st, true
		w := &fleet.Worker{
			Coordinator: a.srv.URL,
			ID:          fmt.Sprintf("w%d", i),
			Execute:     execute(e, r),
			HTTP:        &http.Client{Transport: a.transport(e, "fleet", nil, nil)},
			Parallel:    1,
		}
		a.fleet = append(a.fleet, w)
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			w.Run(ctx)
		}()
	}
	return nil
}

// execute is a fleet worker's unit callback, the same dispatch
// arlworker uses. Every campaign has the worker's shaping (scale 0 and
// the workload's n), so one Runner serves them all.
func execute(e *env, r *experiments.Runner) fleet.Execute {
	return func(_ context.Context, g fleet.LeaseGrant) (json.RawMessage, error) {
		s0 := e.tr.now()
		defer func() { e.tr.add(span{Layer: "fleet", Name: "execute", Job: g.Job, Start: s0}) }()
		var spec service.UnitSpec
		if err := json.Unmarshal(g.Spec, &spec); err != nil {
			return nil, fmt.Errorf("bad unit spec: %w", err)
		}
		res, err := service.ExecuteUnit(r, spec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
}

func (a *arldBench) transport(e *env, layer string, parent *atomic.Int64, job *atomic.Value) http.RoundTripper {
	t := &http.Transport{}
	a.conns = append(a.conns, t)
	if e.tr == nil {
		return t
	}
	return &timedTransport{base: t, t: e.tr, layer: layer, parent: parent, job: job}
}

// shutdown drains the service and stops its server and workers,
// keeping the directory.
func (a *arldBench) shutdown() {
	if a.stop != nil {
		a.stop()
		a.wg.Wait()
		a.stop, a.fleet = nil, nil
	}
	if a.svc != nil {
		a.svc.Drain()
		a.svc = nil
	}
	if a.srv != nil {
		a.srv.Close()
		a.srv = nil
	}
	for _, t := range a.conns {
		t.CloseIdleConnections()
	}
	a.conns = nil
	if a.jrn != nil {
		a.jrn.Close()
		a.jrn = nil
	}
}

func (a *arldBench) close() error {
	a.shutdown()
	if a.dir == "" {
		return nil
	}
	err := os.RemoveAll(a.dir)
	a.dir = ""
	return err
}

// prepare restores, before each arld_warm round, the journal as
// population left it. A cold workload's rounds each get a fresh set-up.
func (a *arldBench) prepare(e *env, i int) error {
	if a.mode != arldWarm {
		return nil
	}
	return writeTree(filepath.Join(a.dir, "journal"), a.snap)
}

func (a *arldBench) round(e *env, i int) (time.Duration, error) {
	start := time.Now()
	if a.mode == arldWarm {
		if err := a.open(e); err != nil {
			return 0, err
		}
	}
	a.campaign(e, i, "round")
	for _, st := range a.stores {
		s := st.Stats()
		e.tr.count("store.puts", float64(s.Writes))
		e.tr.count("store.gets", float64(s.Hits+s.Misses))
		e.tr.count("store.hits", float64(s.Hits))
		e.tr.count("store.quarantined", float64(s.Corrupt))
	}
	e.tr.count("journal.appends", float64(a.jrn.Appends()))
	for _, w := range a.fleet {
		e.tr.count("fleet.fenced", float64(w.Stats().Fenced))
	}
	if a.mode == arldWarm {
		a.shutdown()
	}
	return time.Since(start), nil
}

// clients is the number of closed-loop arld clients: one per CPU of
// the 2-CPU hosts the benchmark targets.
const clients = 2

// campaign runs every job once, in an order the seed permutes, from
// the closed-loop clients. Idempotency keys are fresh per round.
func (a *arldBench) campaign(e *env, i int, tag string) {
	order := e.perm(len(a.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lc := &loadClient{}
		lc.hc = &http.Client{Transport: a.transport(e, "client", &lc.parent, &lc.job)}
		lc.c = service.Client{Base: a.srv.URL, Tenant: "bench", HTTP: lc.hc}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				req := a.jobs[order[k]]
				req.Seed = uint64(e.seed)
				req.IdempotencyKey = fmt.Sprintf("%s-%d-%d-%d", tag, e.seed, i, order[k])
				lc.run(e, fmt.Sprintf("job %d", order[k]), req)
			}
		}()
	}
	wg.Wait()
}

// loadClient is one closed-loop arld client.
type loadClient struct {
	hc     *http.Client
	c      service.Client
	parent atomic.Int64 // current job span, for the transport's spans
	job    atomic.Value // current job ID
}

type received struct {
	ev service.Event
	at time.Duration
}

// run submits one job, tails its event stream to the end, fetches the
// results and checks every unit against its golden digest.
func (lc *loadClient) run(e *env, key string, req service.CampaignRequest) {
	jobSpan := e.tr.id()
	lc.parent.Store(jobSpan)
	lc.job.Store("")
	t0, s0 := time.Now(), e.tr.now()
	var res service.ResultsResponse
	st, err := lc.c.Submit(req)
	submitted := e.tr.now()
	var evs []received
	if err == nil {
		lc.job.Store(st.ID)
		evs, err = lc.events(e, st.ID)
	}
	if err == nil {
		res, err = lc.c.Results(st.ID)
	}
	if err != nil {
		for _, cfg := range req.Configs {
			e.gold.check(req.Workloads[0]+" "+cfg, nil, err)
		}
		return
	}
	e.op(key, time.Since(t0))
	e.tr.add(span{ID: jobSpan, Layer: "client", Name: "job", Job: st.ID, Start: s0})
	lc.unitSpans(e, jobSpan, st.ID, submitted, evs)

	deduped, failed := 0, 0
	for _, u := range res.Units {
		key := u.Spec.Workload + " " + u.Spec.Config.Name
		if u.State != service.StateDone {
			failed++
			e.gold.check(key, nil, fmt.Errorf("unit %s: %s", u.State, u.Error))
			continue
		}
		if u.Deduped {
			deduped++
		}
		var r cpu.Result
		err := json.Unmarshal(u.Result, &r)
		e.gold.check(key, resultJSON(&r), err)
	}
	e.tr.count("service.units", float64(len(res.Units)))
	e.tr.count("service.units_failed", float64(failed))
	e.tr.count("service.deduped", float64(deduped))
}

// events reads the job's NDJSON event stream until the service ends it
// at the job's terminal state, stamping each event's receipt time.
func (lc *loadClient) events(e *env, id string) ([]received, error) {
	resp, err := lc.hc.Get(lc.c.Base + "/api/v1/campaigns/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	var out []received
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("events %s: %w", id, err)
		}
		out = append(out, received{ev, e.tr.now()})
	}
	return out, sc.Err()
}

// unitSpans derives each unit's queue wait (submission to its running
// event) and execution (running to terminal event) from receipt times.
func (lc *loadClient) unitSpans(e *env, parent int64, job string, submitted time.Duration, evs []received) {
	if !e.tr.enabled() {
		return
	}
	running := map[int]time.Duration{}
	for _, r := range evs {
		switch r.ev.State {
		case service.StateRunning:
			if _, ok := running[r.ev.Unit]; !ok {
				running[r.ev.Unit] = r.at
				e.tr.add(span{Layer: "queue", Name: "queue_wait", Job: job, Parent: parent, Start: submitted, End: r.at})
			}
		case service.StateDone, service.StateFailed, service.StateCanceled:
			if at, ok := running[r.ev.Unit]; ok {
				e.tr.add(span{Layer: "service", Name: "exec", Job: job, Parent: parent, Start: at, End: r.at})
			}
		}
	}
}

// readTree loads every regular file under dir, keyed by relative path.
func readTree(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	return out, err
}

// writeTree replaces dir with exactly the files of tree.
func writeTree(dir string, tree map[string][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for rel, b := range tree {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return os.MkdirAll(dir, 0o755)
}
