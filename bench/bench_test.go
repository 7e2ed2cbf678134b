package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100 * ms},
		// Overlapping children cover [10, 60] of the parent once.
		{ID: 2, Parent: 1, Layer: "http", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "http", Start: 30 * ms, End: 60 * ms},
		// A child running past its parent's end counts up to that end.
		{ID: 4, Parent: 1, Layer: "service", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Layer: "service", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client":  100*ms - 50*ms - 10*ms,
		"http":    (30*ms - 5*ms) + 30*ms,
		"service": 30*ms + 5*ms,
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got != 3.7 {
		t.Errorf("p90 of 1..4 = %g, want 3.7", got)
	}
}

// TestRefKernelDoesNotAllocate checks that the reference kernel
// allocates nothing, so the workload's heap cannot change its time
// through the garbage collector.
func TestRefKernelDoesNotAllocate(t *testing.T) {
	k := newRefKernel(toySizes.refKeys)
	if n := testing.AllocsPerRun(2, func() { k.run() }); n != 0 {
		t.Errorf("reference kernel allocates %g times per run", n)
	}
}

// toySizes keep every workload to well under a second.
var toySizes = sizes{
	disamb:      []string{"129.compress", "130.li"},
	sched:       []string{"099.go", "102.swim"},
	simN:        10_000,
	schedN:      10_000,
	simConfigs:  2,
	functional:  []string{"130.li", "102.swim"},
	functionalN: 10_000,
	arld:        []string{"130.li", "102.swim"},
	arldConfigs: []string{"(2+0)", "(3+3)", "(1+1,pen16)"},
	unitsPerJob: 1,
	arldN:       10_000,
	warmN:       10_000,
	warmSetups:  1,
	refKeys:     1 << 8,
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that it emits exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, ours []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, b := range benchmarks(toySizes) {
		ours = append(ours, b.name)
	}
	if strings.Join(listed, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", listed, ours)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, bench emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}

	testdata := t.TempDir()
	for _, w := range listed {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 7, testdata: testdata, work: t.TempDir(), repo: "..", sizes: toySizes}
			check := func(want []metricSpec) result {
				t.Helper()
				res, _, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", o.trace, res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, "\n") != strings.Join(names, "\n") {
					t.Errorf("trace=%v emits\n%s\nBENCHMARK.json lists\n%s", o.trace, strings.Join(got, "\n"), strings.Join(names, "\n"))
				}
				return res
			}

			// Record toy goldens, then check a second seed against them.
			o.update = true
			if _, _, err := run(o); err != nil {
				t.Fatal(err)
			}
			o.update, o.seed = false, 8
			res := check(spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, m.Value)
				}
			}
			o.trace, o.traceDir = true, t.TempDir()
			check(spec.PerLayer)
			if _, err := os.Stat(filepath.Join(o.traceDir, w+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGoldenMismatch checks that an output differing from its golden
// digest fails the run.
func TestGoldenMismatch(t *testing.T) {
	dir := t.TempDir()
	o := options{workload: "sim_disamb", seed: 1, testdata: dir, work: t.TempDir(), repo: "..", sizes: toySizes, update: true}
	if _, _, err := run(o); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sim_disamb.golden")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	bad := line[:len(line)-1] + "x"
	if err := os.WriteFile(path, []byte(strings.Replace(string(b), line, bad, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	o.update = false
	res, _, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}
