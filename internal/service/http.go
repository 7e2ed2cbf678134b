package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP API (see the package doc for the
// route table).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/explorations", s.handleExplore)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/lease/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /api/v1/lease/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Liveness vs readiness: /healthz is "the process is up" — true
	// from the first accepted connection, through journal replay,
	// through drain. /readyz is "route traffic here" — false while the
	// journal replays and false again the moment Drain begins, so load
	// balancers stop sending work to a server that would only 503 it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// decode reads the request's JSON body into v, answering 400 when it
// does not decode.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding %s: %v", r.URL.Path, err))
	}
	return err == nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if decode(w, r, &req) {
		s.submit(w, req)
	}
}

// submit accepts one campaign, mapping the rejection errors onto 503
// and 429 and any other error onto 400.
func (s *Service) submit(w http.ResponseWriter, req CampaignRequest) {
	status, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotReady), errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuota):
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, status)
	}
}

// handleExplore accepts a design-space exploration: the grid expands
// into explore units server-side and submits as an ordinary campaign,
// sharing handleSubmit's idempotency and error mapping.
func (s *Service) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExplorationRequest
	if !decode(w, r, &req) {
		return
	}
	creq, err := req.Campaign()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, creq)
}

// The read replies below wait for the journal records they reflect,
// and serve even when that wait fails: a listed job's own record is
// durable already, and an event record lost to a failed fsync costs a
// recompute after a crash, not a wrong answer. (durable's doc has the
// rule; the journal's failure hook counts and logs the failure.)

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	s.flush()
	writeJSON(w, http.StatusOK, jobs)
}

// pathJob looks up the request's {id} job, answering 404 when there is
// none.
func (s *Service) pathJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		writeJSON(w, http.StatusOK, s.durableStatus(j))
	}
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		resp := s.results(j)
		s.durable(j.journaled())
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleCancel cancels a job: its queued units end as canceled when
// dequeued, and a leased unit starts no further attempt, while
// attempts already running complete and keep their results — finished
// work stays in the shared store either way.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		j.cancel()
		s.logf("job %s: canceled", j.id)
		writeJSON(w, http.StatusOK, s.durableStatus(j))
	}
}

// handleEvents streams the job's per-unit events as NDJSON: a replay
// from ?from=N (default 0, by sequence number), then a live tail until
// the job reaches a terminal state or the client goes away. A batch of
// events is written only once their journal records have been flushed
// (a failed flush is served anyway, as the read replies are).
// Each write runs under a deadline: a subscriber that stops reading
// (its socket buffers full) is dropped after Config.EventWriteTimeout
// instead of wedging this handler — and, through it, a goroutine per
// dead client — forever. A dropped subscriber re-attaches with ?from=N.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("bad from parameter"))
			return
		}
		from = n
	}
	timeout := s.cfg.EventWriteTimeout
	if timeout <= 0 {
		timeout = DefaultEventWriteTimeout
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for {
		events, more, terminal := j.eventsFrom(from)
		if len(events) > 0 {
			s.durable(j.journaled())
			// One deadline covers the whole batch: a reader draining at
			// any reasonable rate never hits it, a stopped one does.
			rc.SetWriteDeadline(time.Now().Add(timeout))
			for _, e := range events {
				if enc.Encode(e) != nil {
					s.dropSubscriber(e.Job)
					return
				}
			}
			from = events[len(events)-1].Seq + 1
			if rc.Flush() != nil {
				s.dropSubscriber(events[0].Job)
				return
			}
		}
		if terminal {
			return
		}
		// Every terminal transition — including a drain canceling the
		// queued units — emits an event, so waiting on the notify
		// channel alone cannot miss the end of the job.
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// dropSubscriber counts one /events stream ended by a write failure or
// deadline — the slow-subscriber guard firing.
func (s *Service) dropSubscriber(jobID string) {
	s.counter("service_events_dropped_subscribers_total",
		"event subscribers dropped after a failed or timed-out write", nil).Inc()
	s.logf("events %s: subscriber dropped (write failed or timed out)", jobID)
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		s.logf("metrics: %v", err)
	}
}
