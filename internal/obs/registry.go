package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64 metric. Handles are
// safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a float64 metric that can go up and down (wall-clock
// seconds, rates, occupancies at a point in time).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the current value. Not atomic against concurrent Adds
// of the same gauge; the harness publishes each gauge from one
// goroutine.
func (g *Gauge) Add(d float64) { g.Set(g.Value() + d) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Hist is a sparse integer histogram (queue occupancies, latencies).
type Hist struct {
	mu     sync.Mutex
	counts map[int64]uint64
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[int64]uint64)
	}
	h.counts[v]++
	h.sum += float64(v)
	h.n++
	h.mu.Unlock()
}

// ObserveCounts records counts[v] samples of each value v: a dense
// histogram a hot loop filled without locking, merged in one step.
func (h *Hist) ObserveCounts(counts []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for v, c := range counts {
		if c == 0 {
			continue
		}
		if h.counts == nil {
			h.counts = make(map[int64]uint64)
		}
		h.counts[int64(v)] += c
		h.sum += float64(v) * float64(c)
		h.n += c
	}
}

// Count reports the number of samples.
func (h *Hist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean reports the sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// snapshot copies the histogram state in ascending bucket order.
func (h *Hist) snapshot() (buckets []Bucket, n uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	vals := make([]int64, 0, len(h.counts))
	for v := range h.counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	buckets = make([]Bucket, len(vals))
	for i, v := range vals {
		buckets[i] = Bucket{Value: v, Count: h.counts[v]}
	}
	return buckets, h.n, h.sum
}

// Metric types as they appear in snapshots and artifacts.
const (
	TypeCounter = "counter"
	TypeGauge   = "gauge"
	TypeHist    = "hist"
)

type entry struct {
	name   string
	labels Labels
	c      *Counter
	g      *Gauge
	h      *Hist
}

func (e *entry) typ() string {
	switch {
	case e.c != nil:
		return TypeCounter
	case e.g != nil:
		return TypeGauge
	default:
		return TypeHist
	}
}

// Registry is a concurrency-safe collection of named, labeled metrics.
// Handle getters are idempotent: the same (name, labels) pair always
// returns the same handle, so independent subsystems may bind to the
// same metric. Registering one name with two different types is a
// programmer error and panics.
type Registry struct {
	mu      sync.Mutex
	help    map[string]string
	types   map[string]string
	entries map[string]*entry
	order   []string // registration order of entry keys (stable snapshots)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:    make(map[string]string),
		types:   make(map[string]string),
		entries: make(map[string]*entry),
	}
}

func (r *Registry) get(name, help, typ string, labels Labels) *entry {
	key := name + labels.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.types[name]; !ok {
		r.types[name] = typ
	} else if have != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, have, typ))
	}
	if help != "" && r.help[name] == "" {
		r.help[name] = help
	}
	e, ok := r.entries[key]
	if !ok {
		e = &entry{name: name, labels: labels.clone()}
		switch typ {
		case TypeCounter:
			e.c = &Counter{}
		case TypeGauge:
			e.g = &Gauge{}
		case TypeHist:
			e.h = &Hist{}
		}
		r.entries[key] = e
		r.order = append(r.order, key)
	}
	return e
}

// Counter returns the counter handle for (name, labels), creating it on
// first use. help is recorded the first time it is non-empty.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.get(name, help, TypeCounter, labels).c
}

// Gauge returns the gauge handle for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.get(name, help, TypeGauge, labels).g
}

// Hist returns the histogram handle for (name, labels).
func (r *Registry) Hist(name, help string, labels Labels) *Hist {
	return r.get(name, help, TypeHist, labels).h
}

// Len reports the number of registered (name, labels) series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Bucket is one histogram bucket: Count samples equal to Value.
type Bucket struct {
	Value int64  `json:"value"`
	Count uint64 `json:"count"`
}

// Sample is one metric series at snapshot time.
type Sample struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Count, Sum and Buckets are set for histograms.
	Count   *uint64  `json:"count,omitempty"`
	Sum     *float64 `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures every registered series, sorted by name then label
// key, so renderings are deterministic regardless of registration or
// update order.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = r.entries[k]
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Type: e.typ(), Help: help[e.name], Labels: e.labels}
		switch {
		case e.c != nil:
			v := float64(e.c.Value())
			s.Value = &v
		case e.g != nil:
			v := e.g.Value()
			s.Value = &v
		case e.h != nil:
			buckets, n, sum := e.h.snapshot()
			s.Buckets = buckets
			s.Count = &n
			s.Sum = &sum
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return Labels(out[i].Labels).key() < Labels(out[j].Labels).key()
	})
	return out
}

// WriteText renders samples in a prometheus-exposition-like plain text
// form, one series per line.
func WriteText(w io.Writer, samples []Sample) error {
	lastName := ""
	for _, s := range samples {
		if s.Name != lastName && s.Help != "" {
			if _, err := fmt.Fprintf(w, "# %s: %s\n", s.Name, s.Help); err != nil {
				return err
			}
		}
		lastName = s.Name
		if _, err := io.WriteString(w, s.Name+labelText(s.Labels)); err != nil {
			return err
		}
		var err error
		switch s.Type {
		case TypeHist:
			var n uint64
			var sum float64
			if s.Count != nil {
				n = *s.Count
			}
			if s.Sum != nil {
				sum = *s.Sum
			}
			mean := 0.0
			if n > 0 {
				mean = sum / float64(n)
			}
			_, err = fmt.Fprintf(w, " count=%d mean=%.2f buckets=%d\n", n, mean, len(s.Buckets))
		default:
			var v float64
			if s.Value != nil {
				v = *s.Value
			}
			_, err = fmt.Fprintf(w, " %g\n", v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func labelText(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + "=" + labels[k]
	}
	return out + "}"
}

// importBuckets folds another histogram's buckets into h. Bucket
// values are integers, so the running sum stays exact under float64
// regardless of merge order (every partial sum is an integer far
// below 2^53) — merging a snapshot reproduces the sum the source
// registry accumulated, bit for bit.
func (h *Hist) importBuckets(buckets []Bucket) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make(map[int64]uint64)
	}
	for _, b := range buckets {
		h.counts[b.Value] += b.Count
		h.sum += float64(b.Value) * float64(b.Count)
		h.n += b.Count
	}
}

// ImportSamples merges a snapshot — such as a copy of another
// registry's state — into the registry: counters add their value,
// gauges set it, histograms accumulate buckets, so importing a
// snapshot into a fresh registry reproduces the source's samples.
// Malformed samples return an error (nothing before them is rolled
// back); a name already registered under a different type panics,
// like the handle getters.
func (r *Registry) ImportSamples(samples []Sample) error {
	for _, s := range samples {
		labels := Labels(s.Labels)
		switch s.Type {
		case TypeCounter:
			if s.Value == nil {
				return fmt.Errorf("obs: counter sample %q has no value", s.Name)
			}
			if v := *s.Value; v < 0 || v != math.Trunc(v) {
				return fmt.Errorf("obs: counter sample %q value %v is not a whole non-negative number", s.Name, v)
			}
			//arlvet:allow obskey replayed artifact samples carry names that were literal constants when first registered
			r.Counter(s.Name, s.Help, labels).Add(uint64(*s.Value))
		case TypeGauge:
			if s.Value == nil {
				return fmt.Errorf("obs: gauge sample %q has no value", s.Name)
			}
			//arlvet:allow obskey replayed artifact samples carry names that were literal constants when first registered
			r.Gauge(s.Name, s.Help, labels).Set(*s.Value)
		case TypeHist:
			//arlvet:allow obskey replayed artifact samples carry names that were literal constants when first registered
			r.Hist(s.Name, s.Help, labels).importBuckets(s.Buckets)
		default:
			return fmt.Errorf("obs: sample %q has unknown type %q", s.Name, s.Type)
		}
	}
	return nil
}

// ArtifactSchema identifies the metrics artifact format; bump on any
// incompatible change together with metrics.schema.json.
const ArtifactSchema = "arl-metrics/v1"

// RunMeta describes the run that produced a metrics artifact.
type RunMeta struct {
	Cmd         string   `json:"cmd"`
	Args        []string `json:"args,omitempty"`
	GoVersion   string   `json:"go_version"`
	StartedAt   string   `json:"started_at,omitempty"` // RFC3339
	WallSeconds float64  `json:"wall_seconds"`
}

// Artifact is the machine-readable per-run metrics file
// (results/*.metrics.json). It validates against the embedded schema
// (see ValidateMetrics).
type Artifact struct {
	Schema  string   `json:"schema"`
	Run     RunMeta  `json:"run"`
	Metrics []Sample `json:"metrics"`
}

// Artifact snapshots the registry into an artifact with the given run
// metadata.
func (r *Registry) Artifact(meta RunMeta) Artifact {
	return Artifact{Schema: ArtifactSchema, Run: meta, Metrics: r.Snapshot()}
}

// EncodeArtifact writes the artifact as indented JSON.
func EncodeArtifact(w io.Writer, a Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}
