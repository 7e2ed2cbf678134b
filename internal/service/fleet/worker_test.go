package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oneUnit is a Source that grants a single unit, reports its job
// canceled once canceled is set, and records the completion.
type oneUnit struct {
	mu       sync.Mutex
	granted  bool
	canceled bool
	done     chan CompleteRequest
}

func (s *oneUnit) Lease(ctx context.Context, _ string) (LeaseGrant, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.granted {
		<-ctx.Done()
		return LeaseGrant{}, false, ErrClosed
	}
	s.granted = true
	return LeaseGrant{LeaseID: "l1", Token: 1, Job: "c0001", Attempts: 10, Seed: 1, Key: "unit"}, true, nil
}

func (s *oneUnit) Renew(context.Context, string, RenewRequest) (RenewReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RenewReply{Canceled: s.canceled}, nil
}

func (s *oneUnit) Complete(_ context.Context, _ string, req CompleteRequest) (LeaseGrant, bool, error) {
	s.done <- req
	return LeaseGrant{}, false, nil
}

// A job canceled while its unit waits out a retry backoff is noticed at
// the next heartbeat, not at the end of the sleep, and the stopped unit
// does not count as failed.
func TestCancelWakesBackoff(t *testing.T) {
	src := &oneUnit{done: make(chan CompleteRequest, 1)}
	var failedAt time.Time
	w := &Worker{
		ID:         "w",
		Source:     src,
		RenewEvery: 5 * time.Millisecond,
		Execute: func(ctx context.Context, _ LeaseGrant) (json.RawMessage, error) {
			// The backoff after attempt 5 is at least 400ms (half of
			// 50ms doubled four times).
			if Attempt(ctx) == 5 {
				src.mu.Lock()
				src.canceled = true
				src.mu.Unlock()
				failedAt = time.Now()
			}
			return nil, errors.New("transient fault")
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	req := <-src.done
	waited := time.Since(failedAt)
	cancel()
	<-done
	if req.Attempts != 5 || req.State != StateFailedWire {
		t.Fatalf("completion %+v, want failed after 5 attempts", req)
	}
	if waited >= 350*time.Millisecond {
		t.Fatalf("cancel took %v to land, want well under the 400ms backoff", waited)
	}
	if s := w.Stats(); s.Failed != 0 || s.Completed != 1 {
		t.Fatalf("stats %+v, want the canceled unit published but not counted failed", s)
	}
}

// Against a coordinator that answers every lease at once with 204 (one
// that does not wait on its queue), a worker still asks only once per
// Poll.
func TestPollPacesImmediateEmptyLeases(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	const poll = 50 * time.Millisecond
	w := &Worker{Coordinator: srv.URL, ID: "w", Poll: poll,
		Execute: func(context.Context, LeaseGrant) (json.RawMessage, error) { return nil, nil }}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	time.Sleep(500 * time.Millisecond)
	cancel()
	<-done
	elapsed := time.Since(start)
	n, most := requests.Load(), int64(elapsed/poll)+1
	if n < 2 || n > most {
		t.Fatalf("%d lease requests in %v, want 2..%d at one per %v", n, elapsed, most, poll)
	}
}

// Against a coordinator that predates chained grants — it ignores
// next_wait_ms and answers every completion {"status":"accepted"} — a
// worker leases each unit, and every unit runs exactly once.
func TestOldCoordinatorFallsBackToLease(t *testing.T) {
	const n = 5
	var mu sync.Mutex
	next, completed := 0, map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.URL.Path == "/api/v1/lease":
			if next == n {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			next++
			json.NewEncoder(w).Encode(LeaseGrant{LeaseID: fmt.Sprintf("l%d", next), Token: uint64(next), Unit: next})
		case strings.HasSuffix(r.URL.Path, "/complete"):
			completed[strings.Split(r.URL.Path, "/")[4]]++
			json.NewEncoder(w).Encode(map[string]string{"status": "accepted"})
		default:
			json.NewEncoder(w).Encode(RenewReply{})
		}
	}))
	defer srv.Close()
	var runs atomic.Int64
	w := &Worker{Coordinator: srv.URL, ID: "w", Poll: 5 * time.Millisecond,
		Execute: func(context.Context, LeaseGrant) (json.RawMessage, error) {
			runs.Add(1)
			return json.RawMessage(`{}`), nil
		}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().Completed < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if s := w.Stats(); s.Leased != n || s.Completed != n || runs.Load() != n {
		t.Fatalf("stats %+v after %d runs, want %d leased, completed and run", s, runs.Load(), n)
	}
	for i := 1; i <= n; i++ {
		if c := completed[fmt.Sprintf("l%d", i)]; c != 1 {
			t.Errorf("lease l%d completed %d times, want once", i, c)
		}
	}
}

// chain is a Source that grants its first unit on Lease and each
// later one in the reply to the previous unit's completion.
type chain struct {
	n      int
	mu     sync.Mutex
	leases int
	done   []string
}

func (c *chain) grant(i int) LeaseGrant {
	return LeaseGrant{LeaseID: fmt.Sprintf("l%d", i), Token: uint64(i), Unit: i}
}

func (c *chain) Lease(ctx context.Context, _ string) (LeaseGrant, bool, error) {
	c.mu.Lock()
	c.leases++
	first := c.leases == 1
	c.mu.Unlock()
	if first {
		return c.grant(0), true, nil
	}
	<-ctx.Done()
	return LeaseGrant{}, false, ErrClosed
}

func (c *chain) Renew(context.Context, string, RenewRequest) (RenewReply, error) {
	return RenewReply{}, nil
}

func (c *chain) Complete(_ context.Context, id string, _ CompleteRequest) (LeaseGrant, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = append(c.done, id)
	if len(c.done) == c.n {
		return LeaseGrant{}, false, nil
	}
	return c.grant(len(c.done)), true, nil
}

// A grant that arrives with a completion runs without a lease request
// and counts in Stats.Leased like a leased one.
func TestStatsCountChainedGrants(t *testing.T) {
	src := &chain{n: 4}
	w := &Worker{ID: "w", Source: src,
		Execute: func(context.Context, LeaseGrant) (json.RawMessage, error) { return nil, nil }}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().Completed < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	src.mu.Lock()
	defer src.mu.Unlock()
	if s := w.Stats(); s.Leased != 4 || s.Completed != 4 {
		t.Fatalf("stats %+v, want 4 leased and 4 completed", s)
	}
	if want := "[l0 l1 l2 l3]"; fmt.Sprint(src.done) != want || src.leases != 2 {
		t.Fatalf("completed %v with %d lease calls, want %s and 2 (the first unit, then the idle one)",
			src.done, src.leases, want)
	}
}
