package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The retry budget comes from the coordinator with every lease, so
// arlworker -retries is a usage error that points at arld -retries
// instead of a flag that silently does nothing.
func TestRetriesFlagIsUsageError(t *testing.T) {
	if os.Getenv("ARLWORKER_MAIN") == "1" {
		os.Args = []string{"arlworker", "-retries", "3", "-coordinator", "http://127.0.0.1:1"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRetriesFlagIsUsageError$")
	cmd.Env = append(os.Environ(), "ARLWORKER_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("arlworker -retries 3: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "arld -retries") {
		t.Fatalf("usage error does not point at arld -retries:\n%s", out)
	}
}
