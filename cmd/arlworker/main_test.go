package main

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "arlworker", main) }

// The retry budget comes from the coordinator with every lease, so
// arlworker -retries is a usage error that points at arld -retries
// instead of a flag that silently does nothing.
func TestRetriesFlagIsUsageError(t *testing.T) {
	_, stderr, code := clitest.Run(t, "-retries", "3", "-coordinator", "http://127.0.0.1:1")
	if code != 2 {
		t.Fatalf("arlworker -retries 3: exit %d, want 2\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "arld -retries") {
		t.Fatalf("usage error does not point at arld -retries:\n%s", stderr)
	}
}
