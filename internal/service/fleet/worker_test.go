package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
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

func (s *oneUnit) Complete(_ context.Context, _ string, req CompleteRequest) error {
	s.done <- req
	return nil
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
