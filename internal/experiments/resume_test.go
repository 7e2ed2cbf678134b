package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/decouple"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/workload"
)

// resumeWorkloads and resumeConfigs define the small campaign the
// kill/resume tests run: enough stages that a SIGKILL lands mid-flight,
// small enough to stay test-fast.
var resumeConfigs = []cpu.Config{
	cpu.Conventional(2, 2),
	cpu.Decoupled(3, 3),
}

func resumeRunner(t *testing.T, dir string, resume bool) *Runner {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := quickRunner(t, "compress", "li")
	r.MaxInsts = 120_000
	r.Parallel = 1 // deterministic stage order; the store works regardless
	r.Obs = obs.NewRegistry()
	r.Store = s
	r.Resume = resume
	return r
}

// resumeCampaign runs the fixed campaign and renders its deterministic
// report: the Figure 8 table over the two configurations, then the
// E12 steering, E13 fast-forwarding and E15 storm sections.
func resumeCampaign(r *Runner) (string, error) {
	type cell struct {
		w   *workload.Workload
		res [2]*cpu.Result
	}
	cells := make([]cell, len(r.Workloads))
	for i, w := range r.Workloads {
		cells[i].w = w
		for j, cfg := range resumeConfigs {
			res, err := r.SimulateConfig(w, cfg)
			if err != nil {
				return "", err
			}
			cells[i].res[j] = res
		}
	}
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s:", c.w.Name)
		for j, res := range c.res {
			fmt.Fprintf(&b, " %s cycles=%d ipc=%.4f", resumeConfigs[j].Name, res.Cycles, res.IPC())
		}
		fmt.Fprintln(&b)
	}
	steer, err := r.SteeringPolicies()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderSteering(steer))
	ff, err := r.FastForwardAblation()
	if err != nil {
		return "", err
	}
	b.WriteString(RenderFastForward(ff))
	storm, err := r.RecoveryStorm(3, []float64{0, 0.05}, []int{2})
	if err != nil {
		return "", err
	}
	b.WriteString(RenderRecoveryStorm(storm))
	return b.String(), nil
}

// artifactBytes renders the registry as a metrics artifact under a
// fixed RunMeta, so two byte-identical registries produce byte-identical
// artifacts regardless of wall clock.
func artifactBytes(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	meta := obs.RunMeta{Cmd: "resume-test", GoVersion: "go", WallSeconds: 1}
	if err := obs.EncodeArtifact(&buf, reg.Artifact(meta)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeHelper is not a test of its own: TestKillResumeDifferential
// re-executes the test binary with ARL_RESUME_STORE set and SIGKILLs it
// mid-campaign to produce a genuinely crashed store directory.
func TestResumeHelper(t *testing.T) {
	dir := os.Getenv("ARL_RESUME_STORE")
	if dir == "" {
		t.Skip("helper process for TestKillResumeDifferential")
	}
	r := resumeRunner(t, dir, false)
	if _, err := resumeCampaign(r); err != nil {
		t.Fatal(err)
	}
}

// payloadSpan is where one stored record's data sits in its segment.
type payloadSpan struct {
	path     string
	off, len int
}

// storedPayloads frames the store's segments the way the store writes
// them — segment-log frames whose payload is a JSON header line with
// the data length, then the data — and returns every complete record's
// data span. A torn tail, which the SIGKILL may leave, ends a
// segment's list.
func storedPayloads(objects string) []payloadSpan {
	segs, _ := filepath.Glob(filepath.Join(objects, "seg-*.log"))
	var out []payloadSpan
	for _, path := range segs {
		data, _ := os.ReadFile(path)
		store.ScanBytes(data, func(f store.Frame) {
			nl := bytes.IndexByte(f.Payload, '\n')
			var hdr struct {
				Len int `json:"len"`
			}
			if nl < 0 || json.Unmarshal(f.Payload[:nl], &hdr) != nil {
				return
			}
			out = append(out, payloadSpan{path: path, off: int(f.Off+f.Size) - len(f.Payload) + nl + 1, len: hdr.Len})
		})
	}
	return out
}

// TestKillResumeDifferential is the crash-recovery acceptance test:
// SIGKILL a child process mid-campaign, resume the campaign from its
// store in a fresh "process" (a fresh Runner and registry here), and
// require the final report and metrics artifact to be byte-identical
// to an uninterrupted run's. Then flip one byte of a stored record and
// require the resumed report to survive unchanged, with the mangled
// record quarantined and recomputed.
func TestKillResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}
	base := t.TempDir()
	killedDir := filepath.Join(base, "killed")

	// Run the campaign in a child and SIGKILL it once the store holds
	// some — but plausibly not all — records. A campaign that outruns
	// the poller just degrades this into a fully-warm resume, which
	// the differential below still validates.
	cmd := exec.Command(os.Args[0], "-test.run=^TestResumeHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "ARL_RESUME_STORE="+killedDir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// With Parallel=1 the helper commits program, trace, then results
	// per workload: three records guarantee at least one result record
	// — the kind whose store hit publishes metrics — is on disk.
	objects := filepath.Join(killedDir, "objects")
	deadline := time.Now().Add(2 * time.Minute)
	for len(storedPayloads(objects)) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing helper: %v", err)
	}
	cmd.Wait() // reap; a kill error is expected
	if len(storedPayloads(objects)) == 0 {
		t.Fatal("helper was killed before writing any store records; campaign too small")
	}

	// Reference: the same campaign, uninterrupted, fresh store.
	ref := resumeRunner(t, filepath.Join(base, "ref"), false)
	refReport, err := resumeCampaign(ref)
	if err != nil {
		t.Fatal(err)
	}
	refArt := artifactBytes(t, ref.Obs)

	// Resume from the killed store in a fresh runner.
	res := resumeRunner(t, killedDir, true)
	resReport, err := resumeCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	resArt := artifactBytes(t, res.Obs)

	if resReport != refReport {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s",
			refReport, resReport)
	}
	if !bytes.Equal(resArt, refArt) {
		t.Fatalf("resumed metrics artifact differs from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s",
			refArt, resArt)
	}
	if hits := res.Store.Stats().Hits; hits == 0 {
		t.Fatal("resumed run reported zero store hits; it recomputed everything")
	}

	// Corruption leg: flip one payload byte in every record the killed
	// store holds, then resume again. Every mangled record must be
	// detected, quarantined and recomputed — and the report must not
	// change.
	spans := storedPayloads(objects)
	segs := map[string][]byte{}
	for _, sp := range spans {
		if segs[sp.path] == nil {
			if segs[sp.path], err = os.ReadFile(sp.path); err != nil {
				t.Fatal(err)
			}
		}
		segs[sp.path][sp.off+sp.len/2] ^= 0x01
	}
	for path, data := range segs {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flipped := len(spans)
	if flipped == 0 {
		t.Fatal("no records to corrupt")
	}
	cor := resumeRunner(t, killedDir, true)
	corReport, err := resumeCampaign(cor)
	if err != nil {
		t.Fatalf("resume over corrupted store failed: %v", err)
	}
	if corReport != refReport {
		t.Fatalf("corrupted-store resume changed the report:\n--- uninterrupted\n%s--- corrupted resume\n%s",
			refReport, corReport)
	}
	if !bytes.Equal(artifactBytes(t, cor.Obs), refArt) {
		t.Fatal("corrupted-store resume changed the metrics artifact")
	}
	st := cor.Store.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("no corruption detected after flipping %d records: %+v", flipped, st)
	}
	if q, err := cor.Store.Quarantined(); err != nil || q == 0 {
		t.Fatalf("quarantine empty after corruption (n=%d, err=%v)", q, err)
	}
}

// TestTransientFailureDoesNotPoisonMemo pins the non-poisoning memo
// contract: a stage cancelled mid-memoization is not cached, so the
// next caller — e.g. an in-process resume after a graceful shutdown
// request was withdrawn — recomputes and succeeds.
func TestTransientFailureDoesNotPoisonMemo(t *testing.T) {
	r := quickRunner(t, "li")
	r.MaxInsts = 40_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Ctx = ctx
	w := r.Workloads[0]
	if _, err := r.Profile(w); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := r.SimulateConfig(w, cpu.Conventional(2, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	r.Ctx = nil // the cancellation is over; same process retries
	if _, err := r.Profile(w); err != nil {
		t.Fatalf("profile after cancellation poisoned: %v", err)
	}
	if _, err := r.SimulateConfig(w, cpu.Conventional(2, 2)); err != nil {
		t.Fatalf("simulate after cancellation poisoned: %v", err)
	}
}

// TestBreakerDegradesWorkload drives one workload's profile stage into
// repeated watchdog expiries until the circuit breaker trips, then
// checks that further stages fail fast with ErrOpen, that degraded
// batches record the breaker once, and that the trip is published to
// the metrics registry.
func TestBreakerDegradesWorkload(t *testing.T) {
	r := quickRunner(t, "li")
	r.MaxInsts = 10_000_000 // far too big for the watchdog below
	r.Degrade = true
	r.WorkloadTimeout = time.Nanosecond
	r.Breaker = resilience.NewBreaker(3)
	r.Obs = obs.NewRegistry()
	w := r.Workloads[0]

	for i := 0; i < 3; i++ {
		if _, err := r.Profile(w); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: err = %v, want DeadlineExceeded", i, err)
		}
	}
	if !r.Breaker.Tripped(w.Name) {
		t.Fatal("breaker not tripped after threshold failures")
	}
	if _, err := r.Profile(w); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("tripped workload err = %v, want ErrOpen", err)
	}
	if _, err := r.Trace(w); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("trace on tripped workload err = %v, want ErrOpen", err)
	}

	// A degraded batch over the tripped workload renders exactly one
	// breaker entry (plus nothing else for this workload).
	if _, err := r.Table1(); err != nil {
		t.Fatalf("degraded batch aborted: %v", err)
	}
	if _, err := r.Table2(); err != nil {
		t.Fatalf("degraded batch aborted: %v", err)
	}
	var open int
	for _, we := range r.Errors() {
		if errors.Is(we, resilience.ErrOpen) {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("recorded %d breaker-open errors, want exactly 1: %v", open, r.Errors())
	}

	var tripped bool
	for _, s := range r.Obs.Snapshot() {
		if s.Name == "harness_breaker_trips_total" && s.Value != nil && *s.Value >= 1 {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("harness_breaker_trips_total not published")
	}
}

// TestStoreWriteThroughAndReload checks the plain (non-crash) store
// path: a second runner over the same store resumes every stage
// without recomputing, and its results agree exactly. E8 is answered
// by the stored profiles, so their LVC statistics must survive the
// round trip.
func TestStoreWriteThroughAndReload(t *testing.T) {
	dir := t.TempDir()
	first := resumeRunner(t, dir, false)
	refReport, err := resumeCampaign(first)
	if err != nil {
		t.Fatal(err)
	}
	refLVC, err := first.LVCHitRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range refLVC {
		if row.StackRefs == 0 {
			t.Fatalf("%s: no stack references", row.Name)
		}
	}
	if w := first.Store.Stats().Writes; w == 0 {
		t.Fatal("write-through produced no store records")
	}
	// Every study simulates through the Runner: per workload the two
	// Figure 8 machines, four tagged policy arms, fast forwarding off,
	// and the two E15 rate points at penalty 2.
	sims := 0
	for _, s := range first.RunStats() {
		sims += s.Sims
	}
	if want := len(first.Workloads) * (len(resumeConfigs) + len(decouple.AllPolicies) - 1 + 1 + 2); sims != want {
		t.Fatalf("campaign ran %d Runner simulations, want %d", sims, want)
	}

	second := resumeRunner(t, dir, true)
	gotReport, err := resumeCampaign(second)
	if err != nil {
		t.Fatal(err)
	}
	if gotReport != refReport {
		t.Fatalf("reloaded report differs:\n%s\nvs\n%s", refReport, gotReport)
	}
	gotLVC, err := second.LVCHitRate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLVC, refLVC) {
		t.Fatalf("reloaded LVC rows %+v, want %+v", gotLVC, refLVC)
	}
	st := second.Store.Stats()
	if st.Hits == 0 {
		t.Fatalf("second run had no store hits: %+v", st)
	}
	// A recomputed stage writes its record back; none may have run.
	if st.Writes != 0 {
		t.Fatalf("resumed run recomputed %d artifacts: %+v", st.Writes, st)
	}
	// The resumed run must not have rebuilt a trace or rerun a
	// simulation, E12's policy traces and E15's storms included.
	for _, s := range second.RunStats() {
		if s.TraceWall != 0 || s.Sims != 0 {
			t.Fatalf("resumed run rebuilt a trace or simulated: %+v", s)
		}
	}
	if !bytes.Equal(artifactBytes(t, second.Obs), artifactBytes(t, first.Obs)) {
		t.Fatal("reloaded metrics artifact differs")
	}
}
