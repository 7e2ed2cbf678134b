package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service/fleet"
	"repro/internal/service/journal"
)

// Every unit reaches a worker through a fenced lease (see package
// fleet): remote arlworkers pull over POST /api/v1/lease and its
// renew and complete endpoints, and arld's in-process workers are
// fleet.Workers over localSource, which calls the same grant, renew
// and complete logic directly. So one path carries the unit policy:
// the workload's circuit breaker gates the grant, the grant ships the
// retry policy, and the completion lands the result, the attempt count
// and the breaker outcome. A grant is journaled write-ahead as the
// unit's running event with its fencing token, which keeps tokens
// monotonic across a coordinator crash. A completion may ask for the
// worker's next unit, and its reply then carries that grant: a busy
// remote worker pays one round trip per unit. A remote grant and a
// remote completion's reply wait for their records to be durable, and
// a completion and the grant it brings share one wait; local ones do
// not wait, because a crash kills their worker too and nothing of
// theirs has left the process.

// ErrBadLease rejects a complete/renew request that is structurally
// invalid (unknown state, undecodable body).
var ErrBadLease = errors.New("service: bad lease request")

// TickLeases advances the lease clock by n ticks and requeues the
// units of any leases that expired. The serving binary drives this
// from its wall-clock ticker; tests drive it directly, which is what
// keeps lease timing deterministic inside the service.
func (s *Service) TickLeases(n uint64) {
	for _, l := range s.leases.Advance(n) {
		u := l.Unit.(*unit)
		s.counter("service_leases_expired_total", "leases that expired without completion",
			obs.Labels{"worker": l.Worker}).Inc()
		s.logf("lease %s (token %d, worker %q): expired, requeueing unit %s[%d]",
			l.ID, l.Token, l.Worker, u.job.id, u.index)
		s.abandon(u)
		s.requeueLeased(u)
	}
	s.leaseGauges()
}

// abandon tells the workload's breaker that a granted unit ended
// without an outcome: its lease expired, was retracted or was drained.
// Cancellation counts as neither success nor failure and re-arms a
// half-open probe, which would otherwise wait forever for a result.
func (s *Service) abandon(u *unit) { s.breaker.Record(u.spec.Workload, context.Canceled) }

func (s *Service) leaseGauges() {
	s.gauge("service_inflight_units", "units out on leases").Set(float64(s.leases.Active()))
	s.gauge("service_workers_live", "distinct workers holding at least one live lease").
		Set(float64(s.leases.Workers()))
}

// requeueLeased returns an expired lease's unit to the queue — or
// cancels it when its job died or the service is draining.
func (s *Service) requeueLeased(u *unit) {
	if u.job.ctx.Err() != nil {
		s.finish(u, StateCanceled, "", nil)
		return
	}
	s.transition(u, StateQueued, nil)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.interrupt(u)
		return
	}
	s.enqueueLocked(u)
	s.mu.Unlock()
}

// MaxLeaseWait caps how long one POST /api/v1/lease waits on an empty
// queue, whatever its wait_ms asks for.
const MaxLeaseWait = 30 * time.Second

// enqueueLocked appends units to the queue and wakes lease waiters.
// Callers hold s.mu. A requeue may take the queue past QueueCap, which
// only bounds new submissions.
func (s *Service) enqueueLocked(units ...*unit) {
	s.queue = append(s.queue, units...)
	close(s.queued)
	s.queued = make(chan struct{})
	s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
}

// leaseWait is the queue wait a lease request's wait_ms asks for,
// capped by MaxLeaseWait.
func leaseWait(ms int64) time.Duration {
	return time.Duration(min(max(ms, 0), MaxLeaseWait.Milliseconds())) * time.Millisecond
}

// lease grants worker the next runnable unit, waiting up to wait for
// one to be queued; a negative wait waits until ctx ends or Drain
// begins. It returns (nil, nil) when the wait passes with no unit, and
// fleet.ErrClosed once Drain begins. A local lease is the in-process
// workers' pinned grant: it never expires.
func (s *Service) lease(ctx context.Context, worker string, wait time.Duration, local bool) (*fleet.LeaseGrant, error) {
	p, err := s.take(ctx, worker, wait, local)
	if p == nil {
		return nil, err
	}
	return s.issue(p)
}

// take is lease up to the grant's write-ahead record: it dequeues a
// unit and grants it, and issue hands the grant out once its record is
// durable. Between the two a caller may write more records for the
// same wait to cover.
func (s *Service) take(ctx context.Context, worker string, wait time.Duration, local bool) (*taken, error) {
	var expired <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expired = t.C
	}
	for {
		// Drain wins over a queued unit: once it begins, queued units
		// are its to cancel.
		select {
		case <-s.stop:
			return nil, fleet.ErrClosed
		default:
		}
		if !local && !s.Ready() {
			return nil, ErrNotReady
		}
		// The wake-up channel is taken under the same s.mu as the
		// dequeue, so a unit queued after this finds the queue empty
		// still wakes this waiter.
		var u *unit
		s.mu.Lock()
		queued := s.queued
		if len(s.queue) > 0 {
			u = s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.gauge("service_queue_depth", "units waiting for a worker").Set(float64(len(s.queue)))
		}
		s.mu.Unlock()
		if u != nil {
			if p, err := s.grant(u, worker, local); p != nil || err != nil {
				return p, err
			}
			continue
		}
		if wait == 0 {
			return nil, nil
		}
		select {
		case <-queued:
		case <-expired:
			return nil, nil
		case <-s.stop:
			return nil, fleet.ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// localSource is the in-process workers' lease source: the service's
// grant, renew and complete logic without HTTP. Lease, and Complete's
// grant of the next unit, block on the queue; once Drain begins, Lease
// returns fleet.ErrClosed and Complete grants nothing.
type localSource struct{ s *Service }

func (l localSource) Lease(ctx context.Context, worker string) (fleet.LeaseGrant, bool, error) {
	return granted(l.s.lease(ctx, worker, -1, true))
}

func (l localSource) Renew(_ context.Context, id string, req fleet.RenewRequest) (fleet.RenewReply, error) {
	return l.s.renewLease(id, req)
}

func (l localSource) Complete(ctx context.Context, id string, req fleet.CompleteRequest) (fleet.LeaseGrant, bool, error) {
	return granted(l.s.completeLease(ctx, id, req, true))
}

// granted is a service grant in fleet.Source's form.
func granted(g *fleet.LeaseGrant, err error) (fleet.LeaseGrant, bool, error) {
	if g == nil {
		return fleet.LeaseGrant{}, false, err
	}
	return *g, true, err
}

// taken is a unit granted under lease l whose running record, at pos,
// may not be durable yet.
type taken struct {
	u     *unit
	l     fleet.Lease
	spec  json.RawMessage
	local bool
	pos   journal.Pos
}

// grant leases a dequeued unit to worker — under a pinned lease, which
// never expires, for an in-process worker — and writes the unit's
// running record ahead of the grant. It returns nil when the unit
// ended instead: its job was canceled, or its workload's circuit
// breaker is open.
func (s *Service) grant(u *unit, worker string, local bool) (*taken, error) {
	if u.job.ctx.Err() != nil {
		s.finish(u, StateCanceled, "", nil)
		return nil, nil
	}
	spec, err := json.Marshal(u.spec)
	if err != nil {
		s.finish(u, StateFailed, fmt.Sprintf("encoding unit spec: %v", err), nil)
		return nil, nil
	}
	// From an Allow that passes on, every path records the unit's
	// outcome with the breaker: completeLease, or abandon.
	if err := s.breaker.Allow(u.spec.Workload); err != nil {
		s.finish(u, StateFailed, err.Error(), nil)
		return nil, nil
	}
	grant := s.leases.Grant
	if local {
		grant = s.leases.GrantPinned
	}
	l := grant(worker, u)
	pos, err := s.transition(u, StateRunning, &l)
	if err != nil {
		return nil, s.retract(u, l, err)
	}
	return &taken{u: u, l: l, spec: spec, local: local, pos: pos}, nil
}

// retract takes back a grant whose running record did not become
// durable and puts its unit back on the queue: the token is burned,
// never exposed.
func (s *Service) retract(u *unit, l fleet.Lease, err error) error {
	s.logf("lease: journal append failed, retracting grant for %s[%d]: %v", u.job.id, u.index, err)
	s.leases.Retract(l.ID)
	s.abandon(u)
	s.mu.Lock()
	s.enqueueLocked(u)
	s.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrJournal, err)
}

// issue hands out a taken grant. Write-ahead like Submit: a remote
// worker's fencing token must be durable before the worker learns it,
// or a crash could reset the fence and let this worker's completion
// collide with a post-restart regrant. When the record fails, the
// grant is retracted.
func (s *Service) issue(p *taken) (*fleet.LeaseGrant, error) {
	u, l := p.u, p.l
	if !p.local {
		if err := s.durable(p.pos); err != nil {
			s.transition(u, StateQueued, nil)
			return nil, s.retract(u, l, err)
		}
	}

	// The first claim of a key computes; every later unit with the same
	// key — the same client resubmitting, another tenant's overlapping
	// grid — rides the runner memo and the store and counts as a dedupe
	// hit. The write happens under j.mu: results() reads it there.
	deduped := !s.claim(u.key)
	u.job.mu.Lock()
	u.deduped = deduped
	u.job.mu.Unlock()
	if deduped {
		s.counter("service_units_deduped_total", "units satisfied by work another unit already did",
			obs.Labels{"tenant": u.job.tenant}).Inc()
	}
	s.counter("service_leases_granted_total", "units leased to workers",
		obs.Labels{"worker": l.Worker}).Inc()
	s.leaseGauges()
	s.logf("lease %s (token %d): unit %s[%d] -> worker %q", l.ID, l.Token, u.job.id, u.index, l.Worker)
	return &fleet.LeaseGrant{
		LeaseID:  l.ID,
		Token:    l.Token,
		TTL:      s.leases.TTL(),
		Job:      u.job.id,
		Unit:     u.index,
		Spec:     p.spec,
		Scale:    u.job.req.Scale,
		MaxInsts: u.job.req.MaxInsts,
		Attempts: s.cfg.Retries + 1,
		Seed:     u.job.req.Seed,
		Key:      u.key,
	}, nil
}

// renewLease heartbeats a lease and tells its worker whether the
// unit's job was canceled.
func (s *Service) renewLease(id string, req fleet.RenewRequest) (fleet.RenewReply, error) {
	l, err := s.leases.Renew(id, req.Token)
	if err != nil {
		return fleet.RenewReply{}, err
	}
	return fleet.RenewReply{Deadline: l.Deadline, Canceled: l.Unit.(*unit).job.ctx.Err() != nil}, nil
}

// completeLease lands a worker's completion (see land) and grants the
// worker its next unit when it asks: a local worker always does, and
// waits for one until Drain; a remote one asks with next_wait_ms. A
// remote completion and the grant it brings become durable in one
// Sync before the reply: when a unit is queued, the completion's final
// record and the grant's running record are both written before it.
// When none is, the completion is made durable before the queue wait,
// which may be long, and the grant later waits alone. The completion
// has landed whatever comes next, so only its own rejection is an
// error; a grant that fails (Drain began, its record failed) is simply
// not made.
func (s *Service) completeLease(ctx context.Context, id string, req fleet.CompleteRequest, local bool) (*fleet.LeaseGrant, error) {
	pos, err := s.land(id, req)
	if err != nil {
		return nil, err
	}
	// The completion's record may fail to become durable: the journal's
	// failure hook counts and logs it, and a retry would only find the
	// lease gone, so the worker hears "accepted" either way.
	syncDone := func() {
		if !local {
			s.durable(pos)
		}
	}
	if !local && req.NextWaitMS == nil {
		syncDone()
		return nil, nil
	}
	wait := time.Duration(-1)
	if !local {
		wait = leaseWait(*req.NextWaitMS)
	}
	next, err := s.take(ctx, req.Worker, 0, local)
	if next == nil && err == nil && wait != 0 {
		syncDone()
		next, _ = s.take(ctx, req.Worker, wait, local)
	}
	syncDone()
	if next == nil {
		return nil, nil
	}
	g, _ := s.issue(next)
	return g, nil
}

// land validates the fencing token and lands the worker's result,
// returning the position of the unit's final journal record. The
// result must be compact JSON, as json.Marshal writes it or
// journal.CompactResult makes it: the journal splices it in as it is
// held. A fenced or unknown lease is the zombie-writer rejection: the
// unit belongs to someone else (or already finished) and the published
// result is discarded.
func (s *Service) land(id string, req fleet.CompleteRequest) (journal.Pos, error) {
	if req.State != StateDone && req.State != StateFailed {
		return journal.Pos{}, fmt.Errorf("%w: state %q", ErrBadLease, req.State)
	}
	v, err := s.leases.Complete(id, req.Token)
	if err != nil {
		s.counter("service_leases_fenced_rejects_total",
			"completions rejected for a stale or unknown lease (zombie writers)",
			obs.Labels{"worker": req.Worker}).Inc()
		s.logf("lease %s: rejected completion from worker %q (token %d): %v",
			id, req.Worker, req.Token, err)
		return journal.Pos{}, err
	}
	// The gauges drop the lease before the unit's final event goes
	// out, so a client that saw its job finish scrapes them settled.
	s.leaseGauges()
	u := v.(*unit)
	j := u.job
	if req.Attempts > 1 {
		s.counter("service_unit_retries_total", "unit attempts retried after a failure",
			obs.Labels{"tenant": j.tenant}).Add(uint64(req.Attempts - 1))
	}
	if req.State == StateDone {
		s.breaker.Record(u.spec.Workload, nil)
		result := req.Result
		if len(result) == 0 {
			result = json.RawMessage("null")
		}
		return s.finish(u, StateDone, "", result), nil
	}
	if req.Error == "" {
		req.Error = "worker reported failure"
	}
	state, execErr := StateFailed, errors.New(req.Error)
	if j.ctx.Err() != nil {
		// The job was canceled under the unit: it did not fail on its
		// own terms, and the breaker must not count it.
		state, execErr = StateCanceled, context.Canceled
	}
	s.breaker.Record(u.spec.Workload, execErr)
	s.counter("service_units_failed_total", "units that failed permanently",
		obs.Labels{"tenant": j.tenant}).Inc()
	return s.finish(u, state, req.Error, nil), nil
}

// HTTP handlers.

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var req fleet.LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	g, err := s.lease(r.Context(), req.Worker, leaseWait(req.WaitMS), false)
	switch {
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrJournal), errors.Is(err, fleet.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil && r.Context().Err() != nil:
		// The worker hung up during the wait: nobody reads an answer.
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case g == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, g)
	}
}

func (s *Service) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	var req fleet.RenewRequest
	if !decode(w, r, &req) {
		return
	}
	reply, err := s.renewLease(r.PathValue("id"), req)
	if err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	// A remote result is compacted once, here where it enters the
	// service; an in-process worker's comes from json.Marshal.
	if len(req.Result) > 0 {
		result, err := journal.CompactResult(req.Result)
		if err != nil {
			writeLeaseError(w, fmt.Errorf("%w: result: %v", ErrBadLease, err))
			return
		}
		req.Result = result
	}
	g, err := s.completeLease(r.Context(), r.PathValue("id"), req, false)
	if err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.CompleteReply{Status: "accepted", Grant: g})
}

// writeLeaseError answers a failed renew or complete: 404 for a lease
// that is gone, 409 for a fenced token, 400 for a malformed request.
func writeLeaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrNoLease):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, fleet.ErrFenced):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrBadLease):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
