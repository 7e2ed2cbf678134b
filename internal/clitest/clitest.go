// Package clitest runs a command's own main() in a child copy of its
// test binary, so a cmd/ package's tests drive the binary's real
// wiring — flags, signals, exit status, the files it writes — without
// building it. The package's TestMain routes through Main:
//
//	func TestMain(m *testing.M) { clitest.Main(m, "arlsim", main) }
package clitest

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// env is the re-exec guard: a child started by Start runs main().
const env = "ARL_CLITEST_MAIN"

// Main runs main as the named command in a child started by Start,
// and the package's tests otherwise.
func Main(m *testing.M, name string, main func()) {
	if os.Getenv(env) == "1" {
		os.Args = append([]string{name}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Proc is one running command. Its stdout and stderr go to files, so
// the test can read them while it runs.
type Proc struct {
	t    testing.TB
	cmd  *exec.Cmd
	out  [2]string
	done chan struct{}
}

// Start runs the command with args; the test's cleanup kills it.
func Start(t testing.TB, args ...string) *Proc {
	t.Helper()
	p := &Proc{t: t, cmd: exec.Command(os.Args[0], args...), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), env+"=1")
	dir := t.TempDir()
	for i, w := range []*io.Writer{&p.cmd.Stdout, &p.cmd.Stderr} {
		f, err := os.Create(filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		p.out[i], *w = f.Name(), f
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.done })
	return p
}

// Run runs the command to completion.
func Run(t testing.TB, args ...string) (stdout, stderr string, code int) {
	p := Start(t, args...)
	code = p.Wait()
	return p.Stdout(), p.Stderr(), code
}

// Wait returns the command's exit status, -1 when a signal ended it.
func (p *Proc) Wait() int {
	<-p.done
	return p.cmd.ProcessState.ExitCode()
}

// Signal sends sig to the command.
func (p *Proc) Signal(sig os.Signal) {
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signal %v: %v\n%s", sig, err, p.Stderr())
	}
}

// Stdout and Stderr return what the command has written so far.
func (p *Proc) Stdout() string { b, _ := os.ReadFile(p.out[0]); return string(b) }
func (p *Proc) Stderr() string { b, _ := os.ReadFile(p.out[1]); return string(b) }

// Eventually polls cond until it holds; it fails the test after 2m.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Metric returns one series of base's /metrics page, such as
// "service_leases_granted_total{worker=w1}"; 0 when it is absent.
func Metric(base, series string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
