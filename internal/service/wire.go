// Package service implements arld, the sharded campaign service: a
// long-running HTTP/JSON server that accepts campaign requests
// (workload × configuration × seed grids), shards their units across a
// bounded pool of workers running the experiment Runner's stages, and
// uses the content-addressed artifact store as a shared cache tier, so
// concurrent clients submitting overlapping grids deduplicate
// compile/profile/trace/simulate work instead of repeating it.
//
// The API surface (all JSON, versioned under /api/v1):
//
//	POST /api/v1/campaigns            submit a campaign; 202 + job id,
//	                                  429 on queue overflow or tenant
//	                                  quota, 503 while draining or
//	                                  still replaying the journal; a
//	                                  repeated idempotency key returns
//	                                  the original job
//	GET  /api/v1/campaigns/{id}       job status (unit state counts)
//	GET  /api/v1/campaigns/{id}/events  NDJSON stream of per-unit
//	                                  completion events; replays from
//	                                  ?from=N, then tails until the job
//	                                  reaches a terminal state
//	GET  /api/v1/campaigns/{id}/results full per-unit results
//	POST /api/v1/campaigns/{id}/cancel  cancel the job's pending units
//	POST /api/v1/lease                pull one unit under a fenced
//	                                  lease (arlworker); 204 when the
//	                                  queue is empty
//	POST /api/v1/lease/{id}/renew     heartbeat a lease; 404/409 when
//	                                  it expired or was fenced
//	POST /api/v1/lease/{id}/complete  publish a leased unit's result;
//	                                  409 rejects zombie writers
//	GET  /metrics                     queue depth, in-flight units,
//	                                  dedupe hits, per-tenant counters,
//	                                  store counters (obs text form)
//	GET  /healthz                     liveness (the process is up)
//	GET  /readyz                      readiness: 503 while the journal
//	                                  is still replaying and while
//	                                  draining, 200 in between
//
// When built with a journal (see Config.Journal), every accepted job
// and unit state transition is written ahead to an append-only log, so
// a SIGKILL at any instant loses no accepted work: the restarted
// service replays the journal, restores finished units' results and
// event streams (same sequence numbers, so ?from=N resumes exactly),
// and re-enqueues incomplete units, which recompute through the
// artifact-store memo instead of from scratch.
package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/cpu"
)

// Unit kinds.
const (
	// KindSimulate is one (workload, machine configuration) timing
	// simulation — the Figure 8 / penalty-sweep unit.
	KindSimulate = "simulate"
	// KindFaultCampaign is one (workload, seed, runs, faults,
	// configuration) differential fault-injection campaign — the
	// arlfault unit.
	KindFaultCampaign = "faultcampaign"
	// KindExplore is one design-space point: a timing simulation whose
	// trace is built with a non-default ARPT size. Expansion names the
	// kind from the ARPT size (0 is KindSimulate, >0 is KindExplore), so
	// frontier campaigns dedupe against plain simulation campaigns.
	KindExplore = "explore"
)

// UnitSpec identifies one shardable unit of campaign work. Config
// travels as the full machine configuration (not just its display
// name): names like "(3+3)" do not encode the misprediction penalty or
// latency variants, and the unit's identity must.
type UnitSpec struct {
	Kind     string      `json:"kind"`
	Workload string      `json:"workload"`
	Config   *cpu.Config `json:"config,omitempty"`
	Seed     uint64      `json:"seed,omitempty"`   // faultcampaign plan seed
	Runs     int         `json:"runs,omitempty"`   // faultcampaign runs
	Faults   int         `json:"faults,omitempty"` // planned faults per run
	ARPT     int         `json:"arpt,omitempty"`   // simulate/explore: ARPT entries (0 = default)
}

// key is the unit's canonical dedupe identity within one server:
// every field that changes the result participates, plus the campaign
// shaping (scale, instruction budget) that store keys also carry.
// It is built with strconv, byte for byte what fmt's
// "%s|%s|scale=%d|n=%d|seed=%d|runs=%d|faults=%d|arpt=%d|%s" prints.
func (u UnitSpec) key(scale int, maxInsts uint64) string {
	b := make([]byte, 0, 128)
	b = append(b, u.Kind...)
	b = append(b, '|')
	b = append(b, u.Workload...)
	b = strconv.AppendInt(append(b, "|scale="...), int64(scale), 10)
	b = strconv.AppendUint(append(b, "|n="...), maxInsts, 10)
	b = strconv.AppendUint(append(b, "|seed="...), u.Seed, 10)
	b = strconv.AppendInt(append(b, "|runs="...), int64(u.Runs), 10)
	b = strconv.AppendInt(append(b, "|faults="...), int64(u.Faults), 10)
	b = strconv.AppendInt(append(b, "|arpt="...), int64(u.ARPT), 10)
	b = append(b, '|')
	if u.Config != nil {
		b = append(b, u.Config.Key()...)
	}
	return string(b)
}

// CampaignRequest is one submission: explicit units, a
// workloads × configs grid shorthand, or both. Empty Workloads with a
// non-empty Configs grid means every workload.
type CampaignRequest struct {
	Tenant   string `json:"tenant,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// IdempotencyKey, when non-empty, makes the submission replay-safe:
	// a second submission with the same (tenant, key) — a client
	// retrying after a crash or a dropped connection — returns the
	// original job instead of enqueueing a duplicate. Keys survive
	// server restarts via the journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Seed feeds the deterministic retry backoff jitter of this job's
	// units (not the simulation semantics, which are deterministic).
	Seed      uint64     `json:"seed,omitempty"`
	Workloads []string   `json:"workloads,omitempty"`
	Configs   []string   `json:"configs,omitempty"` // "(N+M)" grid shorthand
	Units     []UnitSpec `json:"units,omitempty"`
}

// Unit, job and event states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"

	// Job-level terminal states beyond the unit ones.
	JobComplete    = "complete"
	JobFailed      = "failed"
	JobCanceled    = "canceled"
	JobInterrupted = "interrupted" // server drained before the job finished
)

// JobStatus is the wire form of one job's progress.
type JobStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	State    string `json:"state"`
	Units    int    `json:"units"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Canceled int    `json:"canceled"`
	Deduped  int    `json:"deduped"`
}

// Terminal reports whether the job has reached a final state.
func (s JobStatus) Terminal() bool { return s.State != StateRunning }

// Event is one NDJSON progress line: a unit changed state.
type Event struct {
	Seq     int    `json:"seq"`
	Job     string `json:"job"`
	Unit    int    `json:"unit"`
	State   string `json:"state"`
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`
}

// UnitStatus is the wire form of one unit in a results response. The
// payload is the unit's JSON-encoded result: a cpu.Result for
// simulate units, a faultinject.Summary for faultcampaign units.
type UnitStatus struct {
	Index   int             `json:"index"`
	Spec    UnitSpec        `json:"spec"`
	State   string          `json:"state"`
	Deduped bool            `json:"deduped,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// ResultsResponse is the full outcome of one job.
type ResultsResponse struct {
	Status JobStatus    `json:"status"`
	Units  []UnitStatus `json:"units"`
}

// ParseConfigName parses a canonical configuration name —
// "(N+M[,Lcyc][,lvcSK][,<policy>][,penP])", segments in any order —
// into the machine configuration it denotes (M=0 is conventional).
// Every cpu constructor emits names in this grammar, and parsing goes
// back through cpu.Custom, so ParseConfigName(c.Name) returns a Config
// identical to c for any canonically constructed c. Used for the grid
// shorthand, arlexplore point names, and arlsim's -config flag.
func ParseConfigName(name string) (cpu.Config, error) {
	bad := func() (cpu.Config, error) {
		return cpu.Config{}, fmt.Errorf(
			`bad config %q, want "(N+M[,Lcyc][,lvcSK][,<policy>][,penP])" like "(2+0)", "(3+3)" or "(3+3,lvc8K,pen4)"`, name)
	}
	if len(name) < 2 || name[0] != '(' || name[len(name)-1] != ')' {
		return bad()
	}
	tokens := strings.Split(name[1:len(name)-1], ",")
	var p cpu.CustomParams
	l1, lvc, ok := strings.Cut(tokens[0], "+")
	if !ok || !canonicalInt(l1, &p.L1Ports) || !canonicalInt(lvc, &p.LVCPorts) ||
		p.L1Ports <= 0 || p.LVCPorts < 0 {
		return bad()
	}
	var seen [4]bool // one slot per segment kind: a canonical name never repeats one
	for _, tok := range tokens[1:] {
		var v, kind int
		switch {
		case tok == cache.SteerRegion || tok == cache.SteerPattern ||
			tok == cache.SteerPCHash || tok == cache.SteerNone:
			kind, p.Steer = 0, tok
		case intToken(tok, "", "cyc", &v):
			kind, p.L1Latency = 1, v
		case intToken(tok, "lvc", "K", &v):
			kind, p.LVCSizeKB = 2, v
		case intToken(tok, "pen", "", &v):
			kind, p.Penalty = 3, &v
		default:
			return bad()
		}
		if seen[kind] {
			return bad()
		}
		seen[kind] = true
	}
	c, err := cpu.Custom(p)
	if err != nil {
		return cpu.Config{}, fmt.Errorf("bad config %q: %w", name, err)
	}
	return c, nil
}

// intToken matches tok against prefix, an integer, suffix, and stores
// the integer in v.
func intToken(tok, prefix, suffix string, v *int) bool {
	digits, ok := strings.CutPrefix(tok, prefix)
	if !ok {
		return false
	}
	digits, ok = strings.CutSuffix(digits, suffix)
	return ok && canonicalInt(digits, v)
}

// canonicalInt parses s into v when s is the decimal form strconv.Itoa
// prints: a name has one spelling per machine, so "03" or "+3" is
// rejected rather than read as 3.
func canonicalInt(s string, v *int) bool {
	n, err := strconv.Atoi(s)
	if err != nil || strconv.Itoa(n) != s {
		return false
	}
	*v = n
	return true
}
