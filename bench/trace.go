package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Spans of one arld job share Job.
type span struct {
	ID, Parent int64
	Layer      string // module the call enters: cpu, minicc, store, service, ...
	Name       string
	Label      string // what the call worked on: workload, config, path
	Job        string
	Start, End time.Duration // since the tracer's epoch
	Insts      uint64
	Cycles     uint64
	Bytes      uint64
	Round      bool // recorded during a round (false: during set-up)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
// Recording is also off between phases and during the untraced rounds
// a traced run interleaves to measure the tracing overhead.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	round  atomic.Bool
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts [2]map[string]float64 // [set-up, round]
	phases [2]int                // traced set-ups, traced rounds
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: [2]map[string]float64{{}, {}}}
}

// phase switches recording on for one set-up or round.
func (t *tracer) phase(round bool) {
	if t == nil {
		return
	}
	t.round.Store(round)
	t.mu.Lock()
	t.phases[b2i(round)]++
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *tracer) pause() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now reads the tracer clock; zero when not recording.
func (t *tracer) now() time.Duration {
	if !t.enabled() {
		return 0
	}
	return time.Since(t.epoch)
}

// id reserves a span ID so children can name their parent before the
// parent ends.
func (t *tracer) id() int64 {
	if !t.enabled() {
		return 0
	}
	return t.nextID.Add(1)
}

// add records s, ending now, unless s.End is already set.
func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	if s.End == 0 {
		s.End = time.Since(t.epoch)
	}
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	s.Round = t.round.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds v to a named per-phase count.
func (t *tracer) count(name string, v float64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[b2i(t.round.Load())][name] += v
	t.mu.Unlock()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered := time.Duration(0)
		end := s.Start
		for _, c := range ivs {
			a, b := max(c.a, end), min(c.b, s.End)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[s.Layer] += s.dur() - covered
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest of p90, p99 and p99.9 that leaves at
// least ten of n samples beyond it; 50 when none does.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// writeChrome writes spans in Chrome trace-event format, one thread
// lane per layer.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := lanes[s.Layer]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Layer] = tid
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Label != "" {
			args["label"] = s.Label
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// timedFS is a store.FS that records every operation as a span of its
// layer (store or journal). A put is the interval from CreateTemp to
// the Rename that commits it; an append is a Write plus its Sync.
type timedFS struct {
	store.FS
	t     *tracer
	layer string

	mu   sync.Mutex
	puts map[string]time.Duration // temp file -> CreateTemp start
}

func newTimedFS(t *tracer, layer string) *timedFS {
	return &timedFS{FS: store.OS(), t: t, layer: layer, puts: map[string]time.Duration{}}
}

func (f *timedFS) op(name, label string, start time.Duration) {
	f.t.add(span{Layer: f.layer, Name: name, Label: label, Start: start})
}

func (f *timedFS) CreateTemp(dir, pattern string) (store.File, error) {
	start := f.t.now()
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.op("create", dir, start)
	f.mu.Lock()
	f.puts[file.Name()] = start
	f.mu.Unlock()
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	start := f.t.now()
	file, err := f.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	f.op("open", path, start)
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	start := f.t.now()
	err := f.FS.Rename(oldpath, newpath)
	f.op("rename", newpath, start)
	f.mu.Lock()
	put, ok := f.puts[oldpath]
	delete(f.puts, oldpath)
	f.mu.Unlock()
	if ok && err == nil {
		f.op("put", filepath.Base(newpath), put)
	}
	return err
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	start := f.t.now()
	b, err := f.FS.ReadFile(name)
	op := "read"
	if err != nil {
		op = "read_miss"
	}
	f.t.add(span{Layer: f.layer, Name: op, Label: name, Start: start, Bytes: uint64(len(b))})
	return b, err
}

type timedFile struct {
	store.File
	fs    *timedFS
	write time.Duration // start of the last Write, for the append span
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	f.fs.t.add(span{Layer: f.fs.layer, Name: "write", Label: f.Name(), Start: start, Bytes: uint64(n)})
	f.write = start
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	f.fs.op("fsync", f.Name(), start)
	if f.fs.layer == "journal" {
		f.fs.op("append", f.Name(), f.write)
	}
	return err
}

// Header names carrying the client-side span and job across HTTP, so
// server spans can name their parent.
const (
	hdrParent = "X-Bench-Parent"
	hdrJob    = "X-Bench-Job"
)

// timedTransport records one span per HTTP exchange. parent and job,
// when set, point at the caller's current job span.
type timedTransport struct {
	base   http.RoundTripper
	t      *tracer
	layer  string
	parent *atomic.Int64
	job    *atomic.Value
}

func (rt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.enabled() {
		return rt.base.RoundTrip(req)
	}
	s := span{ID: rt.t.id(), Layer: rt.layer, Name: route(req), Label: req.URL.Path, Start: rt.t.now()}
	if rt.parent != nil {
		s.Parent = rt.parent.Load()
	}
	if rt.job != nil {
		s.Job, _ = rt.job.Load().(string)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	req.Header.Set(hdrJob, s.Job)
	resp, err := rt.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusNoContent {
		s.Name += "_empty"
	}
	if err != nil || resp.Body == nil {
		rt.t.add(s)
		return resp, err
	}
	// The exchange ends when the caller closes the body: the /events
	// stream lasts as long as the job.
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.add(b.s) })
	return err
}

// traceHandler records one span per request the service serves.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.id(), Layer: "service", Name: route(r), Label: r.URL.Path, Job: r.Header.Get(hdrJob), Start: t.now()}
		if s.Name == "events" {
			s.Layer = "stream" // held open until the job ends, mostly idle
		}
		s.Parent, _ = strconv.ParseInt(r.Header.Get(hdrParent), 10, 64) // absent: no parent
		h.ServeHTTP(w, r)
		t.add(s)
	})
}

// route names an arld API call by what it does.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v1/campaigns" && r.Method == http.MethodPost:
		return "submit"
	case p == "/api/v1/lease":
		return "lease"
	case strings.HasPrefix(p, "/api/v1/lease/"):
		return p[strings.LastIndexByte(p, '/')+1:] // renew, complete
	case strings.HasPrefix(p, "/api/v1/campaigns/"):
		rest := strings.TrimPrefix(p, "/api/v1/campaigns/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[i+1:] // events, results, cancel
		}
		return "status"
	}
	return strings.TrimPrefix(p, "/")
}
