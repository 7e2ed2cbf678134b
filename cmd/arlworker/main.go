// Command arlworker is the remote execution half of a distributed
// arld: it pulls campaign units from a coordinator over the lease API
// (POST /api/v1/lease), runs them through its own store-backed
// experiment Runners under the retry policy each grant carries,
// heartbeats to keep its leases alive, and publishes each result with
// the lease's fencing token attached — so a worker that stalls past
// its lease and comes back (a zombie writer) has its late completion
// rejected with 409 instead of double-counting the unit. Each
// completion also asks for the worker's next unit, waiting up to
// -poll as a lease request does, so a busy worker leases only its
// first unit and then pays one round trip per unit; a coordinator
// whose reply carries no grant sends it back to POST /api/v1/lease.
//
//	arld -coordinator -addr :8080 -store-dir /srv/arl &
//	arlworker -coordinator http://localhost:8080 -store-dir /tmp/w1 -parallel 4
//
// Workers are cattle: SIGKILL one mid-unit and the coordinator's
// lease clock expires the lease and requeues the unit for the next
// worker, where the content-addressed store memo makes the recompute
// byte-identical. Pointing -store-dir at a shared directory turns the
// store into a fleet-wide cache tier; a private directory still
// dedupes that worker's own re-deliveries.
//
// -net-faults wraps the worker's HTTP transport in the seeded
// chaosnet plan (latency spikes, resets, half-open partitions,
// response truncation) for fleet chaos drills; the worker's retry
// and fencing paths must absorb every injected fault without losing
// or double-counting a unit.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/resilience/chaosnet"
	"repro/internal/service"
	"repro/internal/service/fleet"
	"repro/internal/store"
)

func main() {
	c := cliutil.New("arlworker")
	coordinator := flag.String("coordinator", "http://localhost:8080",
		"coordinator base URL to pull leased units from")
	id := flag.String("id", "", "worker identity reported in lease requests (default: host-pid)")
	renew := flag.Duration("renew", fleet.DefaultRenewEvery, "lease heartbeat period")
	poll := flag.Duration("poll", fleet.DefaultPoll,
		"how long one lease request waits on the coordinator's empty queue (capped there at 30s), and the back-off after a failed request")
	httpTimeout := flag.Duration("http-timeout", 15*time.Second,
		"per-request timeout for coordinator calls")
	c.RunnerFlags()
	c.StoreFlags()
	c.NetFaultsFlag()
	c.ObsFlags("")
	flag.Parse()
	if c.Retries != 0 {
		// StoreFlags registers -retries for every store-backed command,
		// but a worker's retry budget is the coordinator's: it rides in
		// each lease grant.
		fmt.Fprintln(os.Stderr, "arlworker: -retries is set on the coordinator (arld -retries) and sent with every lease")
		flag.Usage()
		os.Exit(2)
	}
	c.Start()
	ctx := c.HandleSignals()

	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	reg := obs.NewRegistry()
	c.ObserveRegistry(reg)

	var st *store.Store
	if c.StoreDir != "" {
		st = c.OpenStore()
	}

	// The same runner pool arld's in-process workers use: runners are
	// classed by the campaign shaping each grant carries, so a worker
	// serving two campaigns with different budgets keeps their
	// in-process memos separate while sharing one store.
	rn := &service.Runners{Store: st, Obs: reg, Timeout: c.Timeout}

	w := &fleet.Worker{
		Coordinator: *coordinator,
		ID:          *id,
		Execute:     rn.Execute,
		HTTP: &http.Client{
			Timeout:   *httpTimeout,
			Transport: chaosnet.Transport(nil, c.NetInjector()),
		},
		RenewEvery: *renew,
		Poll:       *poll,
		Parallel:   c.Parallel,
	}
	if !c.Quiet {
		w.Log = os.Stderr
	}

	fmt.Fprintf(os.Stderr, "arlworker: %s pulling from %s\n", *id, *coordinator)
	w.Run(ctx)
	c.Finish(reg)
	c.Exit()
}
