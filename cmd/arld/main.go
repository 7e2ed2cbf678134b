// Command arld is the sharded campaign service: a long-running
// HTTP/JSON server that accepts campaign requests (workload × config ×
// seed grids), hands their units under fenced leases to a bounded pool
// of in-process workers and to any remote arlworkers, and uses the
// content-addressed artifact store as a shared cache tier, so
// concurrent clients submitting overlapping grids deduplicate work
// instead of repeating it. Design-space frontier sweeps ride the same
// machinery via POST /api/v1/explorations (the grid expands into
// campaign units server-side, so frontier points dedupe against plain
// campaigns).
// See internal/service for the API surface; arlsim, arlreport,
// arlfault and arlexplore consume it through their -server flag.
//
//	arld -addr localhost:8080 -store-dir /tmp/arl-store -retries 2
//
// When -store-dir is set, arld also keeps a write-ahead job journal
// under <store-dir>/journal (override with -journal-dir): every
// accepted job and unit state transition is logged before any client
// or worker can see it, and a restart replays the journal — finished work is served
// from the record, incomplete units are re-enqueued — so a kill -9
// mid-campaign loses nothing. /readyz reports 503 until the replay
// finishes. -store-faults injects a deterministic storage-fault plan
// under both the store and the journal for chaos drills.
//
// SIGINT/SIGTERM drains gracefully: in-flight units run to completion
// and flush through the store's atomic writes, queued units end as
// canceled with their jobs marked interrupted, and the process exits
// 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cliutil"
	"repro/internal/resilience/chaosnet"
	"repro/internal/service"
	"repro/internal/service/journal"
	"repro/internal/store"
)

func main() {
	c := cliutil.New("arld")
	addr := flag.String("addr", "localhost:8080", "listen address")
	queueCap := flag.Int("queue-cap", 0,
		fmt.Sprintf("bound on units waiting for a worker (units on leases take no slot); submissions that do not fit get 429 (0 = %d)", service.DefaultQueueCap))
	tenantCap := flag.Int("tenant-cap", 0,
		"per-tenant in-flight unit bound; over-quota submissions get 429 (0 = the queue bound)")
	journalDir := flag.String("journal-dir", "",
		"write-ahead job journal directory (empty = <store-dir>/journal when -store-dir is set)")
	coordinator := flag.Bool("coordinator", false,
		"coordinator mode: start no in-process workers; every unit is pulled by remote arlworkers through the lease API")
	leaseTTL := flag.Int("lease-ttl", 0,
		"lease lifetime in lease-clock ticks (0 = fleet default)")
	leaseTick := flag.Duration("lease-tick", 500*time.Millisecond,
		"wall-clock period of one lease-clock tick (0 = no ticks: leases never expire)")
	c.RunnerFlags()
	c.StoreFlags()
	c.NetFaultsFlag()
	c.ObsFlags("")
	flag.Parse()
	c.Start()
	ctx := c.HandleSignals()

	var st *store.Store
	if c.StoreDir != "" {
		st = c.OpenStore()
	}

	jdir := *journalDir
	if jdir == "" && c.StoreDir != "" {
		jdir = filepath.Join(c.StoreDir, "journal")
	}
	var jrn *journal.Journal
	if jdir != "" {
		var err error
		jrn, err = journal.OpenFS(c.StoreFS(), jdir)
		if err != nil {
			c.Fatalf("journal: %v", err)
		}
	}

	var logw io.Writer
	if !c.Quiet {
		logw = os.Stderr
	}
	svc := service.New(service.Config{
		Workers:         c.Parallel,
		QueueCap:        *queueCap,
		TenantCap:       *tenantCap,
		UnitTimeout:     c.Timeout,
		Retries:         c.Retries,
		Journal:         jrn,
		LeaseTTL:        *leaseTTL,
		CoordinatorOnly: *coordinator,
		Log:             logw,
	}, st)
	c.ObserveRegistry(svc.Registry())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		c.Fatalf("%v", err)
	}
	// -net-faults wraps the listener so accepted connections misbehave
	// per the seeded plan — the server side of the fleet chaos harness.
	ln = chaosnet.Listen(ln, c.NetInjector())
	fmt.Fprintf(os.Stderr, "arld: listening on http://%s\n", ln.Addr())
	// Server-wide timeouts: a slowloris client that dribbles its header
	// or body bytes, or never reads its response, gets its connection
	// closed instead of pinning a handler forever. The NDJSON /events
	// stream outlives WriteTimeout by design — its handler re-arms the
	// write deadline per batch through http.ResponseController, which
	// overrides the server-wide deadline on that connection.
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The lease clock's wall-clock driver. Determinism lives inside the
	// service (tests call TickLeases directly); the binary just decides
	// how fast ticks arrive.
	if *leaseTick > 0 {
		go func() {
			t := time.NewTicker(*leaseTick)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					svc.TickLeases(1)
				}
			}
		}()
	}

	// Recover after the listener is up so /healthz answers (and /readyz
	// reports 503) while a large journal replays.
	if jrn != nil {
		stats, err := svc.Recover()
		if err != nil {
			c.Fatalf("journal recovery: %v", err)
		}
		fmt.Fprintf(os.Stderr,
			"arld: journal replayed: %d jobs (%d finished), %d units requeued, %d records (%d corrupt, %d torn)\n",
			stats.Jobs, stats.Finished, stats.Requeued, stats.Replayed, stats.Corrupt, stats.Torn)
	}

	select {
	case err := <-errc:
		c.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Drain first — in-flight units complete and flush, queued units
	// cancel, event streams see their jobs finalize — then close the
	// listener and wait out the remaining handlers.
	svc.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "arld: shutdown: %v\n", err)
	}
	cancel()
	if jrn != nil {
		if err := jrn.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "arld: journal close: %v\n", err)
		}
	}
	c.Finish(svc.Registry())
	c.Exit()
}
