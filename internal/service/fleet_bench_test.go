package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service/fleet"
	"repro/internal/service/journal"
	"repro/internal/store"
)

// BenchmarkFleetUnit times what a remote unit costs the coordinator
// and its worker: one fleet.Worker whose Execute does nothing pulls a
// campaign of b.N units from an httptest coordinator with an on-disk
// journal. It reports the worker's lease API requests and the
// journal's fsyncs per unit.
func BenchmarkFleetUnit(b *testing.B) {
	fs := &writeLogFS{FS: store.OS()}
	jrn, err := journal.OpenFS(fs, filepath.Join(b.TempDir(), "journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer jrn.Close()
	svc := New(Config{CoordinatorOnly: true, QueueCap: b.N, Journal: jrn}, nil)
	defer svc.Drain()
	if _, err := svc.Recover(); err != nil {
		b.Fatal(err)
	}
	var reqs atomic.Int64
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/lease") {
			reqs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleet.Worker{Coordinator: srv.URL, ID: "bench", Poll: time.Second, RenewEvery: time.Minute,
		Execute: func(context.Context, fleet.LeaseGrant) (json.RawMessage, error) {
			return json.RawMessage(`{}`), nil
		}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	cl := &Client{Base: srv.URL, Tenant: "bench"}
	b.ResetTimer()
	syncs := fs.syncs.Load()
	st, err := cl.Submit(sameUnits(b.N))
	if err != nil {
		b.Fatal(err)
	}
	if final, err := cl.Wait(st.ID); err != nil || final.State != JobComplete {
		b.Fatalf("campaign ended %+v, %v; want complete", final, err)
	}
	b.StopTimer()
	b.ReportMetric(float64(reqs.Load())/float64(b.N), "reqs/unit")
	b.ReportMetric(float64(fs.syncs.Load()-syncs)/float64(b.N), "fsyncs/unit")
}
