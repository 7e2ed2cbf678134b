// Package fleet is the lease layer that turns arld into a coordinator
// for remote workers. The coordinator hands each campaign unit to a
// worker under a time-bounded lease carrying a monotonically increasing
// fencing token; the worker heartbeats to keep the lease alive and
// attaches the token when it publishes the result. A worker that goes
// quiet — crashed, partitioned, or paused — loses its lease after TTL
// ticks and the unit is handed to someone else under a larger token;
// if the original worker later wakes up and tries to publish (the
// classic zombie writer), its stale token no longer matches and the
// completion is rejected, so a reassigned unit can never be clobbered.
//
// Time here is a logical lease clock, not the wall clock: it advances
// only on explicit Advance calls, which the serving binary drives from
// its own ticker. Lease-API traffic never moves it, so other workers'
// grants and completions cannot expire a live worker's lease between
// two of its heartbeats. That keeps the package deterministic — a test
// replays an exact call/tick sequence and gets the exact same grants,
// expiries and fence decisions.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultTTL is the lease lifetime in lease-clock ticks when the Table
// is built with ttl <= 0. With arld's default 500ms tick this is about
// a minute of real time, long enough to ride out a GC pause or a
// transient partition but short enough that a dead worker's units
// requeue promptly.
const DefaultTTL = 120

var (
	// ErrNoLease reports an unknown (or already expired/completed)
	// lease ID.
	ErrNoLease = errors.New("fleet: no such lease")
	// ErrFenced reports a fencing-token mismatch: the lease was
	// reassigned under a newer token and the caller is a zombie.
	ErrFenced = errors.New("fleet: stale fencing token")
)

// Lease is one granted unit: the opaque coordinator payload plus the
// identity a worker needs to renew and complete it.
type Lease struct {
	ID       string
	Token    uint64 // fencing token, strictly increasing across grants
	Worker   string
	Deadline uint64 // lease-clock tick at which the lease expires; 0 = never (GrantPinned)
	Unit     any    // coordinator payload; fleet never looks inside
}

// Table tracks the active leases under one coordinator. All methods
// are safe for concurrent use; every mutation is a pure function of
// the call sequence, so two tables fed the same sequence agree on
// every grant, expiry and rejection.
type Table struct {
	mu     sync.Mutex
	ttl    uint64
	now    uint64 // logical lease clock
	fence  uint64 // last token minted; next grant gets fence+1
	leases map[string]*Lease
}

// NewTable builds an empty lease table with the given TTL in
// lease-clock ticks (<= 0 selects DefaultTTL).
func NewTable(ttl int) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{ttl: uint64(ttl), leases: make(map[string]*Lease)}
}

// TTL returns the lease lifetime in ticks.
func (t *Table) TTL() uint64 { return t.ttl }

// Now returns the current lease-clock reading.
func (t *Table) Now() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now
}

// Fence returns the last fencing token minted.
func (t *Table) Fence() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fence
}

// SetFence raises the fence floor so the next grant's token is larger
// than min. Recovery calls it while replaying journaled lease records:
// tokens must keep increasing across a coordinator restart or a
// pre-crash zombie could collide with a post-restart grant.
func (t *Table) SetFence(min uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if min > t.fence {
		t.fence = min
	}
}

// Grant leases unit to worker, minting the next fencing token.
func (t *Table) Grant(worker string, unit any) Lease { return t.grant(worker, unit, true) }

// GrantPinned is Grant for a worker inside the coordinator's own
// process. Its lease never expires: such a worker cannot be
// partitioned from the coordinator, so expiring its lease would only
// run the unit twice. Renew, Complete and DrainAll treat it like any
// other lease.
func (t *Table) GrantPinned(worker string, unit any) Lease { return t.grant(worker, unit, false) }

func (t *Table) grant(worker string, unit any, expires bool) Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fence++
	l := &Lease{
		ID:     fmt.Sprintf("l%08x", t.fence),
		Token:  t.fence,
		Worker: worker,
		Unit:   unit,
	}
	if expires {
		l.Deadline = t.now + t.ttl
	}
	t.leases[l.ID] = l
	return *l
}

// Retract removes a just-granted lease before the worker has learned
// its token — the coordinator's undo when the grant could not be made
// durable (journal append failed). Unlike Complete it does not demand
// a live lease.
func (t *Table) Retract(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.leases, id)
}

// Renew extends the lease's deadline by TTL from now. It fails with
// ErrNoLease when the lease has expired or completed, and ErrFenced
// when the token does not match.
func (t *Table) Renew(id string, token uint64) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if !ok {
		return Lease{}, ErrNoLease
	}
	if l.Token != token {
		return Lease{}, ErrFenced
	}
	if l.Deadline != 0 {
		l.Deadline = t.now + t.ttl
	}
	return *l, nil
}

// Complete validates the fencing token and removes the lease,
// returning its unit payload. This is the single arbitration point:
// exactly one completion per grant can succeed, so a unit can never be
// double-counted no matter how many zombies retry.
func (t *Table) Complete(id string, token uint64) (any, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if !ok {
		return nil, ErrNoLease
	}
	if l.Token != token {
		return nil, ErrFenced
	}
	delete(t.leases, id)
	return l.Unit, nil
}

// Advance moves the lease clock forward n ticks and removes every
// lease whose deadline has passed, returning them oldest-token-first
// so the caller can requeue their units deterministically.
func (t *Table) Advance(n uint64) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now += n
	var expired []Lease
	for id, l := range t.leases {
		if l.Deadline != 0 && t.now >= l.Deadline {
			expired = append(expired, *l)
			delete(t.leases, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].Token < expired[j].Token })
	return expired
}

// DrainAll removes and returns every active lease (oldest token
// first): the coordinator cancels outstanding remote work when it
// drains.
func (t *Table) DrainAll() []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Lease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, *l)
	}
	t.leases = make(map[string]*Lease)
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// Active returns the number of live leases.
func (t *Table) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// Workers returns the number of distinct workers holding at least one
// live lease — the service_workers_live gauge.
func (t *Table) Workers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]bool, len(t.leases))
	for _, l := range t.leases {
		seen[l.Worker] = true
	}
	return len(seen)
}
