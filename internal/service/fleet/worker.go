package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// Defaults for the worker's wall-clock knobs. The worker side is free
// to use real time — determinism lives in the coordinator's lease
// clock and in the simulation itself, not in worker pacing.
const (
	DefaultRenewEvery = 2 * time.Second
	DefaultPoll       = 500 * time.Millisecond
)

// ErrClosed is returned by a Source's Lease when it will grant nothing
// more; the worker stops.
var ErrClosed = errors.New("fleet: lease source closed")

// Source is where a Worker's leases come from: a coordinator's HTTP
// lease API, or arld's own lease table for its in-process workers.
// Renew and Complete fail with ErrNoLease or ErrFenced when the lease
// is no longer the caller's; any other error is transient.
type Source interface {
	// Lease grants one unit to worker. ok is false when none is
	// available right now.
	Lease(ctx context.Context, worker string) (g LeaseGrant, ok bool, err error)
	Renew(ctx context.Context, leaseID string, req RenewRequest) (RenewReply, error)
	// Complete publishes a unit's outcome and may grant the worker its
	// next unit in the same exchange: ok reports whether next holds
	// one. A worker whose completion brings no grant calls Lease.
	Complete(ctx context.Context, leaseID string, req CompleteRequest) (next LeaseGrant, ok bool, err error)
}

// Execute runs one attempt of a leased unit and returns the JSON result
// to publish; Attempt(ctx) numbers the attempt. The context is
// canceled when the worker shuts down; the error of the last attempt
// is published as a failed completion.
type Execute func(ctx context.Context, g LeaseGrant) (json.RawMessage, error)

type attemptKey struct{}

// Attempt returns which attempt (1-based) of its unit an Execute call
// is, or 0 outside one.
func Attempt(ctx context.Context) int {
	n, _ := ctx.Value(attemptKey{}).(int)
	return n
}

// Worker pulls units from a lease source and executes them under the
// retry policy each grant carries. Zero-value durations select the
// defaults above.
type Worker struct {
	Coordinator string // base URL, e.g. http://host:8080 (when Source is nil)
	Source      Source // nil = the Coordinator's HTTP lease API
	ID          string // worker identity reported in lease requests
	Execute     Execute
	HTTP        *http.Client  // nil = http.DefaultClient
	RenewEvery  time.Duration // heartbeat period
	Poll        time.Duration // how long one lease waits on an empty queue; the back-off after a failed one
	Parallel    int           // concurrent leases (<= 0 means 1)
	Log         io.Writer     // nil = quiet

	// Counters, readable while running (Stats) — handy for smoke tests
	// and the shutdown log line.
	leased    atomic.Uint64
	completed atomic.Uint64
	fenced    atomic.Uint64
	failed    atomic.Uint64
}

// Stats is a point-in-time snapshot of the worker's counters.
type Stats struct {
	Leased    uint64 // units granted, by Lease or with a completion
	Completed uint64
	Fenced    uint64 // completions rejected by the coordinator's fence
	Failed    uint64 // units whose last attempt returned an error (not a cancel or lost lease)
}

// Stats returns the current counter values.
func (w *Worker) Stats() Stats {
	return Stats{
		Leased:    w.leased.Load(),
		Completed: w.completed.Load(),
		Fenced:    w.fenced.Load(),
		Failed:    w.failed.Load(),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "worker %s: %s\n", w.ID, fmt.Sprintf(format, args...))
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll <= 0 {
		return DefaultPoll
	}
	return w.Poll
}

// Run pulls and executes units until ctx is canceled or the source
// closes. It returns nil on a clean shutdown; coordinator
// unavailability is retried forever (the fleet outlives coordinator
// restarts by design).
func (w *Worker) Run(ctx context.Context) error {
	src := w.Source
	if src == nil {
		client := w.HTTP
		if client == nil {
			client = http.DefaultClient
		}
		// A lease request waits up to Poll on the coordinator's queue,
		// but no longer than half the client's timeout: a long wait
		// must not read as a transport failure.
		wait := w.poll()
		if client.Timeout > 0 {
			wait = min(wait, client.Timeout/2)
		}
		src = httpSource{base: w.Coordinator, client: client, wait: wait}
	}
	n := w.Parallel
	if n <= 0 {
		n = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, src)
		}()
	}
	wg.Wait()
	s := w.Stats()
	w.logf("done: %d leased, %d completed, %d failed, %d fenced",
		s.Leased, s.Completed, s.Failed, s.Fenced)
	return nil
}

// loop runs units one at a time. A unit's completion usually brings
// the next grant; the loop leases only for its first unit and after a
// completion that brought none.
func (w *Worker) loop(ctx context.Context, src Source) {
	var g LeaseGrant
	ok := false
	for ctx.Err() == nil {
		if !ok {
			var closed bool
			if g, ok, closed = w.lease(ctx, src); closed {
				return
			}
			if !ok {
				continue
			}
		}
		w.leased.Add(1)
		g, ok = w.runUnit(ctx, src, g)
	}
}

// lease asks src for a unit. After an empty answer it sleeps only the
// part of Poll the request did not spend waiting on the queue, so a
// coordinator that answers at once is still asked once per Poll.
// closed reports that src will grant nothing more.
func (w *Worker) lease(ctx context.Context, src Source) (g LeaseGrant, ok, closed bool) {
	start := time.Now()
	g, ok, err := src.Lease(ctx, w.ID)
	if errors.Is(err, ErrClosed) {
		return g, false, true
	}
	if ok {
		return g, true, false
	}
	pause := w.poll()
	if err != nil {
		w.logf("lease: %v", err)
	} else {
		pause -= time.Since(start)
	}
	if pause > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(pause):
		}
	}
	return g, false, false
}

// lost reports whether a renew or complete error means the lease is no
// longer ours.
func lost(err error) bool { return errors.Is(err, ErrNoLease) || errors.Is(err, ErrFenced) }

// runUnit executes one granted unit with a heartbeat alongside and
// publishes the completion. Attempts follow the grant's retry policy,
// keyed by the grant's seed and unit key. Before each retry the worker
// renews its lease: a canceled job or a lost lease starts no further
// attempt. A heartbeat that learns the job was canceled ends the
// unit's context, which also cuts short a backoff sleep, so a cancel
// lands within one RenewEvery. A failing heartbeat does NOT abort the
// execution: the lease may already be fenced, but the authoritative
// answer comes from the completion attempt — if we lost the unit, the
// coordinator rejects it there and we move on. Aborting locally would
// just waste the work when the heartbeat failure was a transient
// network fault. It returns the next grant the completion brought, if
// any.
func (w *Worker) runUnit(ctx context.Context, src Source, g LeaseGrant) (LeaseGrant, bool) {
	// unitCtx ends early only when the job is canceled or the lease
	// lost: no further attempt starts, and the unit is not a failure.
	unitCtx, stopUnit := context.WithCancel(ctx)
	defer stopUnit()
	hbCtx, stopHB := context.WithCancel(ctx)
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		w.heartbeat(hbCtx, src, g, stopUnit)
	}()

	retry := resilience.Retry{
		Attempts: g.Attempts,
		Seed:     g.Seed,
		OnRetry: func(_ string, attempt int, delay time.Duration, err error) {
			w.logf("unit %s[%d]: attempt %d failed (%v); next try in %v",
				g.Job, g.Unit, attempt, err, delay)
		},
	}
	var result json.RawMessage
	attempts := 0
	execErr := retry.Do(unitCtx, g.Key, func(actx context.Context) error {
		if attempts > 0 {
			// A transient renew failure does not stop the retry.
			reply, err := src.Renew(actx, g.LeaseID, RenewRequest{Worker: w.ID, Token: g.Token})
			if reply.Canceled || lost(err) {
				stopUnit()
				return context.Canceled
			}
		}
		attempts++
		var err error
		result, err = w.Execute(context.WithValue(actx, attemptKey{}, attempts), g)
		return err
	})
	stopHB()
	hb.Wait()
	if ctx.Err() != nil && execErr != nil {
		// Shutdown mid-unit: publish nothing; the lease expires and the
		// coordinator requeues the unit.
		return LeaseGrant{}, false
	}

	req := CompleteRequest{Worker: w.ID, Token: g.Token, State: StateDoneWire, Result: result, Attempts: attempts}
	if execErr != nil {
		req.State, req.Error = StateFailedWire, execErr.Error()
		if unitCtx.Err() == nil {
			w.failed.Add(1)
		}
	}
	return w.complete(ctx, src, g, req)
}

// Wire spellings of the two terminal unit states a worker can publish
// (mirrors the service's StateDone/StateFailed).
const (
	StateDoneWire   = "done"
	StateFailedWire = "failed"
)

// heartbeat renews the lease every RenewEvery until ctx ends, and
// calls cancel when the coordinator reports the unit's job canceled.
func (w *Worker) heartbeat(ctx context.Context, src Source, g LeaseGrant, cancel func()) {
	every := w.RenewEvery
	if every <= 0 {
		every = DefaultRenewEvery
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		reply, err := src.Renew(ctx, g.LeaseID, RenewRequest{Worker: w.ID, Token: g.Token})
		switch {
		case err == nil && reply.Canceled:
			w.logf("renew %s: job %s canceled", g.LeaseID, g.Job)
			cancel()
			return
		case err == nil:
		case lost(err):
			// Lease gone or fenced: stop heartbeating, keep executing —
			// the completion attempt settles ownership.
			w.logf("renew %s: lost (%v)", g.LeaseID, err)
			return
		default:
			w.logf("renew %s: %v", g.LeaseID, err)
		}
	}
}

// complete publishes the result, retrying transient errors until ctx
// dies: an unpublished finished unit costs a whole re-execution
// elsewhere, so it is worth being stubborn. A lost lease is final —
// someone else owns the unit now. It returns the next grant the
// accepted completion brought, if any.
func (w *Worker) complete(ctx context.Context, src Source, g LeaseGrant, req CompleteRequest) (LeaseGrant, bool) {
	for {
		next, ok, err := src.Complete(ctx, g.LeaseID, req)
		switch {
		case err == nil:
			w.completed.Add(1)
			return next, ok
		case lost(err):
			w.fenced.Add(1)
			w.logf("complete %s: fenced (%v), unit %s[%d] belongs to someone else",
				g.LeaseID, err, g.Job, g.Unit)
			return LeaseGrant{}, false
		default:
			w.logf("complete %s: %v (retrying)", g.LeaseID, err)
		}
		select {
		case <-ctx.Done():
			return LeaseGrant{}, false
		case <-time.After(w.poll()):
		}
	}
}

// httpSource is the lease API of a remote coordinator. A lease
// request, and a completion's request for the next unit, ask the
// coordinator to wait up to wait for a unit.
type httpSource struct {
	base   string
	client *http.Client
	wait   time.Duration
}

func (h httpSource) Lease(ctx context.Context, worker string) (g LeaseGrant, ok bool, err error) {
	code, err := h.post(ctx, "/api/v1/lease", LeaseRequest{Worker: worker, WaitMS: h.wait.Milliseconds()}, &g)
	if err == nil && code != http.StatusOK && code != http.StatusNoContent {
		err = fmt.Errorf("lease: HTTP %d", code)
	}
	return g, err == nil && code == http.StatusOK, err
}

func (h httpSource) Renew(ctx context.Context, id string, req RenewRequest) (RenewReply, error) {
	var reply RenewReply
	code, err := h.post(ctx, "/api/v1/lease/"+id+"/renew", req, &reply)
	if err != nil {
		return RenewReply{}, err
	}
	return reply, leaseStatus(code)
}

func (h httpSource) Complete(ctx context.Context, id string, req CompleteRequest) (LeaseGrant, bool, error) {
	wait := h.wait.Milliseconds()
	req.NextWaitMS = &wait
	var reply CompleteReply
	code, err := h.post(ctx, "/api/v1/lease/"+id+"/complete", req, &reply)
	if err == nil {
		err = leaseStatus(code)
	}
	if err != nil || reply.Grant == nil {
		return LeaseGrant{}, false, err
	}
	return *reply.Grant, true, nil
}

// leaseStatus maps a renew or complete answer onto the Source errors:
// 404 is ErrNoLease, any other 4xx ErrFenced (the unit is not ours to
// publish), and anything else but 200 a transient failure.
func leaseStatus(code int) error {
	switch {
	case code == http.StatusOK:
		return nil
	case code == http.StatusNotFound:
		return ErrNoLease
	case code >= 400 && code < 500:
		return fmt.Errorf("%w (HTTP %d)", ErrFenced, code)
	default:
		return fmt.Errorf("HTTP %d", code)
	}
}

// post sends a JSON body and decodes a JSON reply into out (when out
// is non-nil and the status is 200). It returns the status code; a
// non-nil error means the exchange itself failed (transport).
func (h httpSource) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
