package service

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// Client talks to one arld server. The CLIs use it for -server mode:
// they ship the campaign grid to the server, tail its progress, and
// assemble the results through the same row assemblers the local
// Runner drivers use — which is what keeps a -server report
// byte-identical to a local one.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// Tenant identifies this client for quota accounting.
	Tenant string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Log receives per-unit progress lines (nil for silence).
	Log io.Writer
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// statusError is a non-2xx server answer; it keeps the code machine-
// readable so retry policy can distinguish "the server is restarting"
// (retry with the same idempotency key) from "the request is wrong".
type statusError struct {
	code   int
	method string
	path   string
	status string
	msg    string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("server: %s (%s)", e.msg, e.status)
	}
	return fmt.Sprintf("server: %s %s: %s", e.method, e.path, e.status)
}

// transientServerError reports whether err is worth retrying against
// the same server: a transport failure (connection refused/reset — the
// server is restarting) or a 503 from a server that is recovering its
// journal or mid-drain. 4xx rejections and decode errors are not.
func transientServerError(err error) bool {
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusServiceUnavailable
}

// do issues one JSON request, decoding the response into out (unless
// nil) and turning non-2xx statuses into errors carrying the server's
// message.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &statusError{code: resp.StatusCode, method: method, path: path, status: resp.Status}
		var er errorResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			se.msg = er.Error
		}
		return se
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Submit sends one campaign, stamping the client's tenant.
func (c *Client) Submit(req CampaignRequest) (JobStatus, error) {
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
	var status JobStatus
	err := c.do(http.MethodPost, "/api/v1/campaigns", req, &status)
	return status, err
}

// Status fetches one job's progress.
func (c *Client) Status(id string) (JobStatus, error) {
	var status JobStatus
	err := c.do(http.MethodGet, "/api/v1/campaigns/"+id, nil, &status)
	return status, err
}

// Cancel cancels one job's pending units.
func (c *Client) Cancel(id string) (JobStatus, error) {
	var status JobStatus
	err := c.do(http.MethodPost, "/api/v1/campaigns/"+id+"/cancel", nil, &status)
	return status, err
}

// Results fetches the full per-unit outcome of one job.
func (c *Client) Results(id string) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.do(http.MethodGet, "/api/v1/campaigns/"+id+"/results", nil, &resp)
	return resp, err
}

// waitRetryBudget bounds how many consecutive failed contacts Wait
// rides out before giving up — at waitRetryDelay apart, roughly half a
// minute: enough to cross a server crash, journal replay and restart,
// not enough to hang forever on a server that is simply gone.
const waitRetryBudget = 150

const waitRetryDelay = 200 * time.Millisecond

// Wait tails the job's NDJSON event stream until it reaches a terminal
// state, logging per-unit completions, then returns the final status.
// If the stream drops mid-job — a proxy timeout, or the server itself
// crashing and restarting — it reconnects from the last seen event
// sequence number and keeps waiting, as long as failures to reach the
// server stay transient and within the retry budget.
func (c *Client) Wait(id string) (JobStatus, error) {
	from := 0
	fails := 0
	for {
		next, _ := c.tail(id, from)
		if next > from {
			from = next
		}
		status, serr := c.Status(id)
		switch {
		case serr == nil:
			fails = 0
			if status.Terminal() {
				return status, nil
			}
		case !transientServerError(serr):
			return status, serr
		default:
			fails++
			if fails > waitRetryBudget {
				return status, fmt.Errorf("server unreachable for %d attempts: %w", fails, serr)
			}
		}
		// The stream dropped mid-job (server restart, proxy timeout);
		// reconnect from the last seen event.
		time.Sleep(waitRetryDelay)
	}
}

// tail streams events with sequence number ≥ from, returning the next
// resume point (one past the last event seen). A nil error means the
// stream ended with the job terminal.
func (c *Client) tail(id string, from int) (int, error) {
	resp, err := c.http().Get(c.url(fmt.Sprintf("/api/v1/campaigns/%s/events?from=%d", id, from)))
	if err != nil {
		return from, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return from, fmt.Errorf("server: events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return from, err
		}
		from = e.Seq + 1
		if c.Log != nil && e.State != StateQueued && e.State != StateRunning {
			dedup := ""
			if e.Deduped {
				dedup = " (deduped)"
			}
			if e.Error != "" {
				fmt.Fprintf(c.Log, "%s unit %d: %s%s: %s\n", e.Job, e.Unit, e.State, dedup, e.Error)
			} else {
				fmt.Fprintf(c.Log, "%s unit %d: %s%s\n", e.Job, e.Unit, e.State, dedup)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return from, err
	}
	return from, nil
}

// NewIdempotencyKey returns a fresh random idempotency key for one
// logical submission: reusing it across retries of the same submission
// is what makes a re-POST after a crash return the original job.
func NewIdempotencyKey() string {
	var b [16]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// Run submits a campaign, waits for it, and returns the results —
// erroring unless the job completed fully. The submission carries an
// idempotency key (generated here unless the caller set one) and is
// retried through transient server trouble — a restart between the
// POST and its response yields the original job, never a duplicate.
func (c *Client) Run(req CampaignRequest) (ResultsResponse, error) {
	if req.IdempotencyKey == "" {
		req.IdempotencyKey = NewIdempotencyKey()
	}
	return c.await(func() (JobStatus, error) { return c.Submit(req) })
}

// await runs an idempotent submission, retrying it through transient
// server trouble, then waits for the job and fetches its results —
// erroring unless the job completed fully.
func (c *Client) await(submit func() (JobStatus, error)) (ResultsResponse, error) {
	var status JobStatus
	var err error
	for attempt := 0; ; attempt++ {
		status, err = submit()
		if err == nil || !transientServerError(err) || attempt >= waitRetryBudget {
			break
		}
		time.Sleep(waitRetryDelay)
	}
	if err != nil {
		return ResultsResponse{}, err
	}
	status, err = c.Wait(status.ID)
	if err != nil {
		return ResultsResponse{}, err
	}
	resp, err := c.Results(status.ID)
	if err != nil {
		return ResultsResponse{}, err
	}
	if status.State != JobComplete {
		return resp, fmt.Errorf("job %s ended %s (%d failed, %d canceled): %s",
			status.ID, status.State, status.Failed, status.Canceled, firstError(resp))
	}
	return resp, nil
}

// decodeUnits decodes the results of a job's first n units by index;
// a unit with no result leaves a nil entry.
func decodeUnits[T any](resp ResultsResponse, n int) ([]*T, error) {
	out := make([]*T, n)
	for _, u := range resp.Units {
		if u.Index < 0 || u.Index >= n || len(u.Result) == 0 {
			continue
		}
		out[u.Index] = new(T)
		if err := json.Unmarshal(u.Result, out[u.Index]); err != nil {
			return nil, fmt.Errorf("unit %d: decoding result: %v", u.Index, err)
		}
	}
	return out, nil
}

// firstError digs the first per-unit error out of a results response.
func firstError(resp ResultsResponse) string {
	for _, u := range resp.Units {
		if u.Error != "" {
			return fmt.Sprintf("unit %d: %s", u.Index, u.Error)
		}
	}
	return "no unit error recorded"
}

// SimResults runs the given simulate units remotely and returns their
// decoded results in spec order — the same layout the Runner's
// parallelDo drivers produce, ready for the shared row assemblers.
func (c *Client) SimResults(scale int, maxInsts, seed uint64, specs []UnitSpec) ([]*cpu.Result, error) {
	resp, err := c.Run(CampaignRequest{
		Scale: scale, MaxInsts: maxInsts, Seed: seed, Units: specs,
	})
	if err != nil {
		return nil, err
	}
	return decodeUnits[cpu.Result](resp, len(specs))
}

// SimGrid builds the simulate units for a workloads × configs grid,
// workload-major — the layout AssembleFigure8 consumes.
func SimGrid(workloads []*workload.Workload, configs []cpu.Config) []UnitSpec {
	specs := make([]UnitSpec, 0, len(workloads)*len(configs))
	for _, w := range workloads {
		for i := range configs {
			specs = append(specs, UnitSpec{Kind: KindSimulate, Workload: w.Name, Config: &configs[i]})
		}
	}
	return specs
}

// Figure8 runs the timing study grid remotely and assembles the rows
// through the same assembler the local Runner driver uses, so the
// rendered report is byte-identical to a local run over the same
// artifacts.
func (c *Client) Figure8(scale int, maxInsts, seed uint64,
	workloads []*workload.Workload, configs []cpu.Config) ([]experiments.Figure8Row, error) {
	results, err := c.SimResults(scale, maxInsts, seed, SimGrid(workloads, configs))
	if err != nil {
		return nil, err
	}
	return experiments.AssembleFigure8(workloads, configs, results), nil
}

// PenaltySweep runs the E11 misprediction-penalty sweep remotely: one
// (2+0) baseline plus one stormed (3+3) unit per (workload, penalty),
// assembled through the shared assembler.
func (c *Client) PenaltySweep(scale int, maxInsts, seed uint64,
	workloads []*workload.Workload, penalties []int) ([]experiments.PenaltyRow, error) {
	np := len(penalties)
	if np == 0 {
		return nil, nil
	}
	configs := make([]cpu.Config, 0, np+1)
	configs = append(configs, cpu.Conventional(2, 2))
	for _, pen := range penalties {
		configs = append(configs, experiments.PenaltyConfig(pen))
	}
	grid, err := c.SimResults(scale, maxInsts, seed, SimGrid(workloads, configs))
	if err != nil {
		return nil, err
	}
	// SimGrid is workload-major over np+1 configs: index wi*(np+1) is
	// the baseline, the rest the penalty points. Re-split into the
	// per-unit bases/results layout AssemblePenaltySweep consumes.
	bases := make([]*cpu.Result, len(workloads)*np)
	results := make([]*cpu.Result, len(workloads)*np)
	for wi := range workloads {
		for pi := 0; pi < np; pi++ {
			bases[wi*np+pi] = grid[wi*(np+1)]
			results[wi*np+pi] = grid[wi*(np+1)+1+pi]
		}
	}
	return experiments.AssemblePenaltySweep(workloads, penalties, bases, results), nil
}

// Explore runs a design-space frontier sweep remotely: the grid goes
// to POST /api/v1/explorations (idempotent, retried through transient
// server trouble like Run), the client re-enumerates the same points
// from the same seed to decode results in unit order, and the frontier
// assembles through the same explore.Assemble a local arlexplore run
// uses — so a -server frontier artifact is byte-identical to a local
// one over the same store.
func (c *Client) Explore(scale int, maxInsts, seed uint64,
	workloads []*workload.Workload, grid explore.Grid) (*explore.Frontier, error) {
	pts, dropped, err := grid.Enumerate(seed)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	req := ExplorationRequest{
		Tenant: c.Tenant, Scale: scale, MaxInsts: maxInsts, Seed: seed,
		Workloads: names, Grid: grid, IdempotencyKey: NewIdempotencyKey(),
	}
	resp, err := c.await(func() (JobStatus, error) {
		var status JobStatus
		err := c.do(http.MethodPost, "/api/v1/explorations", req, &status)
		return status, err
	})
	if err != nil {
		return nil, err
	}
	// Server expansion order is points outer, workloads inner (see
	// ExplorationRequest.Campaign).
	flat, err := decodeUnits[cpu.Result](resp, len(pts)*len(names))
	if err != nil {
		return nil, err
	}
	results := make([][]*cpu.Result, len(pts))
	for i := range results {
		results[i] = flat[i*len(names) : (i+1)*len(names)]
	}
	return explore.Assemble(grid, seed, scale, maxInsts, names, pts, dropped, results)
}

// FaultSummaries runs the differential fault campaign remotely over
// the given workloads, returning summaries in workload order — the
// layout Runner.FaultCampaigns produces locally.
func (c *Client) FaultSummaries(scale int, maxInsts uint64, workloads []*workload.Workload,
	seed uint64, runs, faults int, cfg cpu.Config) ([]*faultinject.Summary, error) {
	specs := make([]UnitSpec, 0, len(workloads))
	for _, w := range workloads {
		specs = append(specs, UnitSpec{
			Kind: KindFaultCampaign, Workload: w.Name, Config: &cfg,
			Seed: seed, Runs: runs, Faults: faults,
		})
	}
	resp, err := c.Run(CampaignRequest{
		Scale: scale, MaxInsts: maxInsts, Seed: seed, Units: specs,
	})
	if err != nil {
		return nil, err
	}
	return decodeUnits[faultinject.Summary](resp, len(specs))
}
