package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Configurations and programs with their own simulation-cost metric:
// the Figure-8 configurations and the sim_* programs.
var (
	layerConfigs  = []string{"c2p0", "c3p0", "c3p0_3cyc", "c4p0_3cyc", "c2p2", "c2p3", "c3p3", "c16p0"}
	layerPrograms = []string{"compress", "li", "vortex", "tomcatv", "go", "ijpeg", "swim"}
)

// layerView aggregates a traced run: span totals and counts are per
// set-up plus per round, so counts of deterministic work repeat
// exactly; latency percentiles pool every traced sample.
type layerView struct{ t *tracer }

func (v layerView) match(layer, name string) func(span) bool {
	return func(s span) bool { return s.Layer == layer && (name == "" || s.Name == name) }
}

// sum totals f over matching spans, per set-up plus per round.
func (v layerView) sum(keep func(span) bool, f func(span) float64) float64 {
	var tot [2]float64
	for _, s := range v.t.spans {
		if keep(s) {
			tot[b2i(s.Round)] += f(s)
		}
	}
	return v.perPhase(tot)
}

func (v layerView) perPhase(tot [2]float64) float64 {
	out := 0.0
	for i, n := range v.t.phases {
		if n > 0 {
			out += tot[i] / float64(n)
		}
	}
	return out
}

func (v layerView) count(name string) float64 {
	return v.perPhase([2]float64{v.t.counts[0][name], v.t.counts[1][name]})
}

// pct is the q-quantile of matching spans' durations, in unit.
func (v layerView) pct(keep func(span) bool, q float64, unit time.Duration) float64 {
	var xs []float64
	for _, s := range v.t.spans {
		if keep(s) {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
	}
	return quantile(xs, q)
}

func secs(s span) float64   { return s.dur().Seconds() }
func insts(s span) float64  { return float64(s.Insts) }
func cycles(s span) float64 { return float64(s.Cycles) }
func nbytes(s span) float64 { return float64(s.Bytes) }
func one(span) float64      { return 1 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric of a traced run. A
// layer the workload does not exercise reports 0.
func layerMetrics(t *tracer, overhead float64, loc lineCounts) map[string]metric {
	v := layerView{t}
	m := map[string]metric{}
	put := func(name, unit string, x float64) { m[name] = metric{x, unit} }

	put("minicc.compile_ms", "ms", v.sum(v.match("minicc", "compile"), secs)*1e3)

	traceS, traceN := v.sum(v.match("cpu", "trace"), secs), v.sum(v.match("cpu", "trace"), insts)
	put("cpu.trace_s", "s", traceS)
	put("cpu.trace_insts", "count", traceN)
	put("cpu.trace_ns_per_inst", "ns/inst", ratio(traceS*1e9, traceN))
	profS, profN := v.sum(v.match("profile", "profile"), secs), v.sum(v.match("profile", "profile"), insts)
	put("profile.s", "s", profS)
	put("profile.ns_per_inst", "ns/inst", ratio(profS*1e9, profN))
	put("core.predictor_s", "s", v.sum(v.match("core", "predictor"), secs))
	put("cache.lvc_pass_s", "s", v.sum(v.match("cache", "lvc"), secs))

	sim := v.match("cpu", "sim")
	simS, simN, simC := v.sum(sim, secs), v.sum(sim, insts), v.sum(sim, cycles)
	put("cpu.sim_s", "s", simS)
	put("cpu.sims", "count", v.sum(sim, one))
	put("cpu.sim_insts", "count", simN)
	put("cpu.sim_cycles", "count", simC)
	put("cpu.sim_ns_per_inst", "ns/inst", ratio(simS*1e9, simN))
	put("cpu.sim_ns_per_cycle", "ns/cycle", ratio(simS*1e9, simC))
	put("cpu.sim_mcycles_per_s", "Mcycles/s", ratio(simC/1e6, simS))
	for _, c := range layerConfigs {
		keep := func(s span) bool { return sim(s) && strings.HasSuffix(s.Label, " "+c) }
		put("cpu.sim_ns_per_inst."+c, "ns/inst", ratio(v.sum(keep, secs)*1e9, v.sum(keep, insts)))
	}
	for _, p := range layerPrograms {
		keep := func(s span) bool { return sim(s) && strings.HasPrefix(s.Label, p+" ") }
		put("cpu.sim_ns_per_inst."+p, "ns/inst", ratio(v.sum(keep, secs)*1e9, v.sum(keep, insts)))
	}

	put("go.alloc_mb", "MB", v.count("go.alloc_bytes")/(1<<20))
	put("go.gc_cycles", "count", v.count("go.gc_cycles"))
	put("go.gc_pause_ms", "ms", v.count("go.gc_pause_ns")/1e6)

	gets := v.count("store.gets")
	put("store.puts", "count", v.count("store.puts"))
	put("store.put_us_p50", "us", v.pct(v.match("store", "put"), 0.5, time.Microsecond))
	put("store.fsync_us_p50", "us", v.pct(v.match("store", "fsync"), 0.5, time.Microsecond))
	put("store.bytes_written", "bytes", v.sum(v.match("store", "write"), nbytes))
	put("store.gets", "count", gets)
	storeRead := func(s span) bool { return s.Layer == "store" && (s.Name == "read" || s.Name == "read_miss") }
	put("store.get_us_p50", "us", v.pct(storeRead, 0.5, time.Microsecond))
	put("store.hit_ratio", "ratio", ratio(v.count("store.hits"), gets))
	put("store.quarantined", "count", v.count("store.quarantined"))

	appendSpan := v.match("journal", "append")
	put("journal.appends", "count", v.count("journal.appends"))
	put("journal.append_us_p50", "us", v.pct(appendSpan, 0.5, time.Microsecond))
	put("journal.append_us_p99", "us", v.pct(appendSpan, 0.99, time.Microsecond))
	put("journal.fsync_us_p50", "us", v.pct(v.match("journal", "fsync"), 0.5, time.Microsecond))
	put("journal.replay_ms", "ms", v.sum(v.match("journal", "replay"), secs)*1e3)
	put("journal.replayed_records", "count", v.count("journal.replayed_records"))

	units := v.count("service.units")
	handled := func(s span) bool { return (s.Layer == "service" && s.Name != "exec") || s.Layer == "stream" }
	put("service.submit_ms_p50", "ms", v.pct(v.match("service", "submit"), 0.5, time.Millisecond))
	put("service.results_ms_p50", "ms", v.pct(v.match("service", "results"), 0.5, time.Millisecond))
	put("service.queue_wait_ms_p50", "ms", v.pct(v.match("queue", "queue_wait"), 0.5, time.Millisecond))
	put("service.queue_wait_ms_p90", "ms", v.pct(v.match("queue", "queue_wait"), 0.9, time.Millisecond))
	put("service.exec_ms_p50", "ms", v.pct(v.match("service", "exec"), 0.5, time.Millisecond))
	put("service.exec_ms_p90", "ms", v.pct(v.match("service", "exec"), 0.9, time.Millisecond))
	put("service.units", "count", units)
	put("service.units_failed", "count", v.count("service.units_failed"))
	put("service.deduped_ratio", "ratio", ratio(v.count("service.deduped"), units))
	put("service.http_requests", "count", v.sum(handled, one))

	put("fleet.lease_rtt_ms_p50", "ms", v.pct(v.match("fleet", "lease"), 0.5, time.Millisecond))
	put("fleet.complete_rtt_ms_p50", "ms", v.pct(v.match("fleet", "complete"), 0.5, time.Millisecond))
	put("fleet.execute_ms_p50", "ms", v.pct(v.match("fleet", "execute"), 0.5, time.Millisecond))
	put("fleet.lease_empty", "count", v.sum(v.match("fleet", "lease_empty"), one))
	put("fleet.renews", "count", v.sum(v.match("fleet", "renew"), one))
	put("fleet.fenced", "count", v.count("fleet.fenced"))

	put("loc.nontest", "lines", float64(loc.NonTest))
	put("loc.test", "lines", float64(loc.Test))
	put("bench.trace_overhead", "ratio", overhead)
	return m
}

type lineCounts struct {
	NonTest int `json:"nontest"`
	Test    int `json:"test"`
}

// countLines counts the lines of the repository's Go files, leaving
// out the benchmark's own directory and build output.
func countLines(root string) lineCounts {
	var c lineCounts
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if rel == "bench" || rel == ".git" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := bytes.Count(b, []byte("\n"))
		if strings.HasSuffix(path, "_test.go") {
			c.Test += n
		} else {
			c.NonTest += n
		}
		return nil
	})
	return c
}

// writeReport writes the result with the provenance a BENCH point
// records.
func writeReport(path string, o options, res result, rep report) error {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", o.repo, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	doc := map[string]any{
		"command":    os.Args,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"loc":        countLines(o.repo),
		"result":     res,
		"report":     rep,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
