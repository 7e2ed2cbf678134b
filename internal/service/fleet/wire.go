package fleet

import "encoding/json"

// Wire types for the lease API:
//
//	POST /api/v1/lease               LeaseRequest  -> LeaseGrant | 204
//	POST /api/v1/lease/{id}/renew    RenewRequest  -> RenewReply
//	POST /api/v1/lease/{id}/complete CompleteRequest -> CompleteReply | 404 | 409
//
// A lease request waits on the coordinator's queue for up to its
// wait_ms (capped by the coordinator; absent means answer at once), and
// a 204 means no unit arrived in that time. A completion that carries
// next_wait_ms also asks for the worker's next unit, with the same
// wait: its reply carries the grant, so a busy worker pays one round
// trip per unit. A reply without a grant (none arrived in the wait, or
// a coordinator that predates the field) sends the worker back to
// POST /api/v1/lease. A 404 or 409 from renew or complete means the
// lease is gone or fenced and the worker should abandon the unit —
// someone else owns it.

// LeaseRequest is a worker's pull for one unit.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// WaitMS is how long the coordinator may hold the request open
	// waiting for a unit before it answers 204 (capped by the
	// coordinator; 0 answers at once).
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeaseGrant is the coordinator's answer: one leased unit plus the
// run parameters and retry policy every worker executes it under.
type LeaseGrant struct {
	LeaseID string `json:"lease_id"`
	Token   uint64 `json:"token"`
	TTL     uint64 `json:"ttl"` // lease-clock ticks until expiry without renew

	Job      string          `json:"job"`
	Unit     int             `json:"unit"` // index within the job
	Spec     json.RawMessage `json:"spec"` // service.UnitSpec
	Scale    int             `json:"scale,omitempty"`
	MaxInsts uint64          `json:"max_insts,omitempty"`

	// The retry policy: up to Attempts tries (0 means 1), with
	// resilience.Retry backoff keyed by Seed (the job's seed) and Key
	// (the unit's dedupe key).
	Attempts int    `json:"attempts,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Key      string `json:"key,omitempty"`
}

// RenewRequest heartbeats a lease.
type RenewRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
}

// RenewReply acknowledges a renewal. Canceled reports that the unit's
// job was canceled: the worker starts no further attempt.
type RenewReply struct {
	Deadline uint64 `json:"deadline"` // lease-clock tick of the new expiry
	Canceled bool   `json:"canceled,omitempty"`
}

// CompleteRequest publishes a unit result under the fencing token.
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Token  uint64          `json:"token"`
	State  string          `json:"state"` // "done" or "failed"
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Attempts is how many times the worker executed the unit.
	Attempts int `json:"attempts,omitempty"`
	// NextWaitMS, when present, asks for the worker's next unit in the
	// reply, waiting for one as LeaseRequest.WaitMS does. Absent asks
	// for none.
	NextWaitMS *int64 `json:"next_wait_ms,omitempty"`
}

// CompleteReply acknowledges a completion that landed. Grant is the
// worker's next unit, when the request asked for one and one was
// granted.
type CompleteReply struct {
	Status string      `json:"status"` // "accepted"
	Grant  *LeaseGrant `json:"grant,omitempty"`
}
