package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryHandlesAreIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sim_cycles_total", "cycles", Labels{"workload": "x"})
	b := r.Counter("sim_cycles_total", "", Labels{"workload": "x"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct handles")
	}
	other := r.Counter("sim_cycles_total", "", Labels{"workload": "y"})
	if a == other {
		t.Fatal("distinct labels shared a handle")
	}
	a.Add(41)
	b.Inc()
	if got := a.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as counter and gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "", nil)
	r.Gauge("m", "", nil)
}

// TestObserveCountsMatchesObserve: merging a dense count vector gives
// the histogram one Observe per sample would have, buckets, count and
// sum alike, also on top of samples already held.
func TestObserveCountsMatchesObserve(t *testing.T) {
	r := NewRegistry()
	one, bulk := r.Hist("one", "", nil), r.Hist("bulk", "", nil)
	one.Observe(3)
	bulk.Observe(3)
	counts := []uint64{2, 0, 5, 1, 0, 0, 7}
	for v, c := range counts {
		for i := uint64(0); i < c; i++ {
			one.Observe(int64(v))
		}
	}
	bulk.ObserveCounts(counts)
	b1, n1, s1 := one.snapshot()
	b2, n2, s2 := bulk.snapshot()
	if !reflect.DeepEqual(b1, b2) || n1 != n2 || s1 != s2 {
		t.Fatalf("bulk = (%v, %d, %v), per-sample = (%v, %d, %v)", b2, n2, s2, b1, n1, s1)
	}
	empty := r.Hist("empty", "", nil)
	empty.ObserveCounts([]uint64{0, 0})
	if b, n, _ := empty.snapshot(); len(b) != 0 || n != 0 {
		t.Fatalf("all-zero counts recorded samples: %v, %d", b, n)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits_total", "", Labels{"k": "v"}).Inc()
				r.Hist("occ", "", nil).Observe(int64(j % 4))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "", Labels{"k": "v"}).Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Hist("occ", "", nil).Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z_gauge", "last", nil).Set(1.5)
	r.Counter("a_counter", "first", Labels{"b": "2", "a": "1"}).Add(7)
	r.Hist("m_hist", "middle", nil).Observe(3)
	r.Hist("m_hist", "", nil).Observe(3)
	r.Hist("m_hist", "", nil).Observe(-1)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if !bytes.Equal(j1, j2) {
		t.Fatal("snapshots differ across calls")
	}
	if len(s1) != 3 {
		t.Fatalf("%d samples, want 3", len(s1))
	}
	if s1[0].Name != "a_counter" || s1[1].Name != "m_hist" || s1[2].Name != "z_gauge" {
		t.Fatalf("unsorted snapshot: %s, %s, %s", s1[0].Name, s1[1].Name, s1[2].Name)
	}
	h := s1[1]
	if h.Count == nil || *h.Count != 3 || len(h.Buckets) != 2 {
		t.Fatalf("hist sample = %+v", h)
	}
	if h.Buckets[0].Value != -1 || h.Buckets[1].Value != 3 || h.Buckets[1].Count != 2 {
		t.Fatalf("hist buckets = %+v", h.Buckets)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_cycles_total", "total simulated cycles", Labels{"config": "(3+3)"}).Add(100)
	r.Hist("sim_lsq_occupancy", "LSQ entries per cycle", nil).Observe(5)
	var b strings.Builder
	if err := WriteText(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# sim_cycles_total: total simulated cycles",
		"sim_cycles_total{config=(3+3)} 100",
		"sim_lsq_occupancy count=1 mean=5.00 buckets=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestArtifactMatchesSchema pins the writer and the checked-in JSON
// schema together: an artifact produced by this package must validate,
// and known corruptions must not.
func TestArtifactMatchesSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_cycles_total", "cycles", Labels{"workload": "130.li", "config": "(3+3)"}).Add(12345)
	r.Gauge("harness_wall_seconds", "stage wall time", Labels{"stage": "trace"}).Set(0.25)
	r.Hist("sim_lsq_occupancy", "", nil).Observe(17)

	var buf bytes.Buffer
	a := r.Artifact(RunMeta{Cmd: "arlsim", Args: []string{"-fig8"}, GoVersion: "go1.22", WallSeconds: 1.25})
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("artifact does not validate against embedded schema: %v\n%s", err, buf.String())
	}

	bad := []struct {
		name string
		doc  string
	}{
		{"wrong schema tag", `{"schema":"other/v9","run":{"cmd":"x","go_version":"g","wall_seconds":1},"metrics":[]}`},
		{"missing run.cmd", `{"schema":"arl-metrics/v1","run":{"go_version":"g","wall_seconds":1},"metrics":[]}`},
		{"bad metric type", `{"schema":"arl-metrics/v1","run":{"cmd":"x","go_version":"g","wall_seconds":1},"metrics":[{"name":"a","type":"timer"}]}`},
		{"bad metric name", `{"schema":"arl-metrics/v1","run":{"cmd":"x","go_version":"g","wall_seconds":1},"metrics":[{"name":"Bad Name","type":"counter"}]}`},
		{"negative wall", `{"schema":"arl-metrics/v1","run":{"cmd":"x","go_version":"g","wall_seconds":-1},"metrics":[]}`},
		{"extra top-level key", `{"schema":"arl-metrics/v1","run":{"cmd":"x","go_version":"g","wall_seconds":1},"metrics":[],"extra":1}`},
	}
	for _, tc := range bad {
		if err := ValidateMetrics([]byte(tc.doc)); err == nil {
			t.Errorf("%s: invalid artifact passed validation", tc.name)
		}
	}
}

func TestLabelsWith(t *testing.T) {
	base := Labels{"a": "1"}
	ext := base.With(Labels{"b": "2", "a": "override"})
	if ext["a"] != "override" || ext["b"] != "2" {
		t.Fatalf("With = %v", ext)
	}
	if base["a"] != "1" || len(base) != 1 {
		t.Fatalf("With mutated receiver: %v", base)
	}
}

// TestImportSamples proves merging a snapshot reproduces the registry
// state the original updates built — the property the store's resume
// path depends on for byte-identical metrics artifacts.
func TestImportSamples(t *testing.T) {
	src := NewRegistry()
	l := Labels{"workload": "099.go", "config": "(3+3)"}
	src.Counter("sim_cycles_total", "simulated cycles", l).Add(1234)
	src.Gauge("sim_ipc", "ipc", l).Set(1.75)
	h := src.Hist("sim_lsq_occupancy", "occupancy", l)
	for i := 0; i < 100; i++ {
		h.Observe(int64(i % 7))
	}

	dst := NewRegistry()
	// Pre-existing counts must accumulate, not be overwritten.
	dst.Counter("sim_cycles_total", "", Labels{"workload": "126.gcc", "config": "(3+3)"}).Add(10)
	if err := dst.ImportSamples(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportSamples(src.Snapshot()); err != nil {
		t.Fatal(err) // import twice: counters double, gauges stay
	}

	byKey := map[string]Sample{}
	for _, s := range dst.Snapshot() {
		byKey[s.Name+Labels(s.Labels).key()] = s
	}
	c := byKey["sim_cycles_total"+l.key()]
	if c.Value == nil || *c.Value != 2468 {
		t.Fatalf("counter = %+v", c)
	}
	g := byKey["sim_ipc"+l.key()]
	if g.Value == nil || *g.Value != 1.75 {
		t.Fatalf("gauge = %+v", g)
	}
	hs := byKey["sim_lsq_occupancy"+l.key()]
	if hs.Count == nil || *hs.Count != 200 || len(hs.Buckets) != 7 {
		t.Fatalf("hist = %+v", hs)
	}
	if hs.Sum == nil || *hs.Sum != 2*hsSum(h) {
		t.Fatalf("hist sum = %v, want %v", *hs.Sum, 2*hsSum(h))
	}

	// A single-fragment import into a fresh registry snapshots
	// identically to the source registry.
	clone := NewRegistry()
	if err := clone.ImportSamples(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	a, b := src.Snapshot(), clone.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("sample %d differs:\n %+v\n %+v", i, a[i], b[i])
		}
	}
}

func hsSum(h *Hist) float64 {
	_, _, sum := h.snapshot()
	return sum
}

func TestImportSamplesRejectsMalformed(t *testing.T) {
	r := NewRegistry()
	if err := r.ImportSamples([]Sample{{Name: "x", Type: "bogus"}}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if err := r.ImportSamples([]Sample{{Name: "x", Type: TypeCounter}}); err == nil {
		t.Fatal("valueless counter accepted")
	}
	neg := -1.0
	if err := r.ImportSamples([]Sample{{Name: "x", Type: TypeCounter, Value: &neg}}); err == nil {
		t.Fatal("negative counter accepted")
	}
}
