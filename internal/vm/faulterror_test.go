package vm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
)

// load assembles src into a fresh machine.
func load(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return m
}

// stepAll drives m through Step until it halts or faults, so Step's
// MaxInsts watchdog is the only bound.
func stepAll(m *Machine) error {
	for !m.Halted() {
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

const loopForever = `
main:
	li $t0, 0
loop:
	addi $t0, $t0, 1
	j loop
`

func TestMaxInstsWatchdog(t *testing.T) {
	m := load(t, loopForever)
	m.MaxInsts = 1000
	err := stepAll(m)
	if err == nil {
		t.Fatal("runaway loop did not trip the watchdog")
	}
	if !errors.Is(err, ErrMaxInsts) {
		t.Fatalf("errors.Is(err, ErrMaxInsts) = false for %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if fe.Seq != 1000 {
		t.Fatalf("fault seq = %d, want exactly the budget 1000", fe.Seq)
	}
}

func TestFaultHookAbortsWithContext(t *testing.T) {
	sentinel := errors.New("planted fault")
	var hookPC uint32
	m := load(t, loopForever)
	m.FaultHook = func(seq uint64, pc uint32) error {
		if seq == 37 {
			hookPC = pc
			return fmt.Errorf("wrapped: %w", sentinel)
		}
		return nil
	}
	err := m.Run(context.Background(), 0, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false for %v", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if fe.Seq != 37 {
		t.Fatalf("fault seq = %d, want 37 (the hook's abort point)", fe.Seq)
	}
	if fe.PC != hookPC {
		t.Fatalf("fault pc = %#x, hook saw %#x", fe.PC, hookPC)
	}
	if fe.Unwrap() == nil || !errors.Is(fe.Unwrap(), sentinel) {
		t.Fatalf("Unwrap() does not reach the hook's error: %v", fe.Unwrap())
	}
}

func TestFaultErrorMessageHasContext(t *testing.T) {
	fe := &FaultError{PC: 0x1234, Seq: 42, Err: errors.New("boom")}
	msg := fe.Error()
	for _, want := range []string{"0x00001234", "42", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("FaultError message %q missing %q", msg, want)
		}
	}
}

func TestCleanRunAfterWatchdogHeadroom(t *testing.T) {
	// The watchdog must not fire when the budget covers the program.
	m := load(t, `
main:
	li $v0, 7
	jr $ra
`)
	m.MaxInsts = 100
	if err := stepAll(m); err != nil {
		t.Fatalf("bounded clean run faulted: %v", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	m := load(t, loopForever)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Run(ctx, 0, func(Event) { t.Fatal("a cancelled run retired an instruction") })
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("errors.As(*FaultError) = false for %v", err)
	}
	if fe.Seq != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v at seq %d, want context.Canceled at seq 0", err, fe.Seq)
	}
}

func TestRunPollingKeepsFaultHook(t *testing.T) {
	// A cancellable context adds Run's poll; the hook must still see
	// every instruction, in order.
	const n = 3000
	m := load(t, loopForever)
	var seen []uint64
	m.FaultHook = func(seq uint64, _ uint32) error {
		seen = append(seen, seq)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.Run(ctx, n, nil); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("hook saw %d instructions, want %d", len(seen), n)
	}
	for i, seq := range seen {
		if seq != uint64(i) {
			t.Fatalf("hook call %d saw seq %d", i, seq)
		}
	}
}
