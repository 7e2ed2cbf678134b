package vm

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/region"
)

func run(t *testing.T, src string) (*Machine, string) {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var out bytes.Buffer
	m, err := New(Config{Program: p, Out: &out})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := m.Run(context.Background(), 0, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, out.String()
}

func TestArithmeticAndExitCode(t *testing.T) {
	m, _ := run(t, `
main:
	li $t0, 6
	li $t1, 7
	mul $v0, $t0, $t1
	jr $ra
`)
	if m.ExitCode() != 42 {
		t.Errorf("exit = %d, want 42", m.ExitCode())
	}
}

func TestLoadsStores(t *testing.T) {
	m, _ := run(t, `
.data
w: .word 0x11223344
.text
main:
	la $t0, w
	lw $t1, 0($t0)
	lb $t2, 0($t0)
	lbu $t3, 3($t0)
	lh $t4, 2($t0)
	sw $t1, 4($t0)
	lw $v0, 4($t0)
	jr $ra
`)
	if m.ExitCode() != 0x11223344 {
		t.Errorf("exit = %#x, want 0x11223344", uint32(m.ExitCode()))
	}
	if got := m.Reg(isa.T2); got != 0x44 {
		t.Errorf("lb = %#x", got)
	}
	if got := m.Reg(isa.T3); got != 0x11 {
		t.Errorf("lbu byte3 = %#x", got)
	}
	if got := m.Reg(isa.T4); got != 0x1122 {
		t.Errorf("lh = %#x", got)
	}
}

func TestSignExtension(t *testing.T) {
	m, _ := run(t, `
.data
b: .word 0x000080FF
.text
main:
	la $t0, b
	lb $t1, 0($t0)    # 0xFF -> -1
	lb $t2, 1($t0)    # 0x80 -> -128
	lh $t3, 0($t0)    # 0x80FF -> negative
	jr $ra
`)
	if got := int32(m.Reg(isa.T1)); got != -1 {
		t.Errorf("lb sign = %d, want -1", got)
	}
	if got := int32(m.Reg(isa.T2)); got != -128 {
		t.Errorf("lb sign = %d, want -128", got)
	}
	if got := int32(m.Reg(isa.T3)); got != -32513 {
		t.Errorf("lh sign = %d, want -32513", got)
	}
}

func TestControlFlowLoop(t *testing.T) {
	m, _ := run(t, `
main:
	li $t0, 0
	li $t1, 10
	li $v0, 0
loop:
	add $v0, $v0, $t0
	addi $t0, $t0, 1
	blt $t0, $t1, loop
	jr $ra
`)
	if m.ExitCode() != 45 {
		t.Errorf("sum 0..9 = %d, want 45", m.ExitCode())
	}
}

func TestFunctionCall(t *testing.T) {
	m, _ := run(t, `
main:
	addi $sp, $sp, -8
	sw $ra, 4($sp)
	li $a0, 5
	jal double
	lw $ra, 4($sp)
	addi $sp, $sp, 8
	jr $ra
double:
	add $v0, $a0, $a0
	jr $ra
`)
	if m.ExitCode() != 10 {
		t.Errorf("exit = %d, want 10", m.ExitCode())
	}
}

func TestRecursion(t *testing.T) {
	// fib(10) = 55, deliberately naive recursion to exercise the stack.
	m, _ := run(t, `
main:
	addi $sp, $sp, -8
	sw $ra, 4($sp)
	li $a0, 10
	jal fib
	lw $ra, 4($sp)
	addi $sp, $sp, 8
	jr $ra
fib:
	li $at, 2
	blt $a0, $at, base
	addi $sp, $sp, -12
	sw $ra, 8($sp)
	sw $a0, 4($sp)
	addi $a0, $a0, -1
	jal fib
	sw $v0, 0($sp)
	lw $a0, 4($sp)
	addi $a0, $a0, -2
	jal fib
	lw $t0, 0($sp)
	add $v0, $v0, $t0
	lw $ra, 8($sp)
	addi $sp, $sp, 12
	jr $ra
base:
	move $v0, $a0
	jr $ra
`)
	if m.ExitCode() != 55 {
		t.Errorf("fib(10) = %d, want 55", m.ExitCode())
	}
}

func TestSyscallPrints(t *testing.T) {
	_, out := run(t, `
.data
msg: .asciiz "x="
.text
main:
	li $v0, 4
	la $a0, msg
	syscall
	li $v0, 1
	li $a0, -7
	syscall
	li $v0, 11
	li $a0, 10
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`)
	if out != "x=-7\n" {
		t.Errorf("output = %q, want %q", out, "x=-7\n")
	}
}

func TestSbrkGrowsHeap(t *testing.T) {
	m, _ := run(t, `
main:
	li $v0, 9
	li $a0, 4096
	syscall
	move $t0, $v0      # old brk = heap base
	sw $t0, 0($t0)     # store into the new heap page
	lw $v0, 0($t0)
	jr $ra
`)
	heapBase := m.Prog.InitialLayout().HeapBase
	if uint32(m.ExitCode()) != heapBase {
		t.Errorf("heap base = %#x, want %#x", uint32(m.ExitCode()), heapBase)
	}
	if m.Layout.Brk != heapBase+4096 {
		t.Errorf("brk = %#x, want %#x", m.Layout.Brk, heapBase+4096)
	}
}

func TestSbrkOverflowFaults(t *testing.T) {
	p, err := asm.Assemble("t.s", `
main:
	li $v0, 9
	li $a0, -1
	syscall
	jr $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(context.Background(), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "sbrk") {
		t.Errorf("want sbrk fault, got %v", err)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	p, err := asm.Assemble("t.s", `
main:
	li $t0, 1
	div $v0, $t0, $zero
	jr $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(context.Background(), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Errorf("want div fault, got %v", err)
	}
	var fe *FaultError
	if !asFault(err, &fe) {
		t.Errorf("fault not a *FaultError: %T", err)
	}
}

func asFault(err error, out **FaultError) bool {
	for err != nil {
		if fe, ok := err.(*FaultError); ok {
			*out = fe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestZeroRegisterImmutable(t *testing.T) {
	m, _ := run(t, `
main:
	li $zero, 99
	move $v0, $zero
	jr $ra
`)
	if m.ExitCode() != 0 {
		t.Errorf("$zero = %d, want 0", m.ExitCode())
	}
}

func TestFloatingPoint(t *testing.T) {
	m, _ := run(t, `
main:
	li.s $f0, 1.5
	li.s $f1, 2.25
	add.s $f2, $f0, $f1
	mul.s $f3, $f2, $f2    # 14.0625
	cvt.w.s $v0, $f3       # 14
	c.lt.s $t0, $f0, $f1   # 1
	add $v0, $v0, $t0
	jr $ra
`)
	if m.ExitCode() != 15 {
		t.Errorf("fp result = %d, want 15", m.ExitCode())
	}
}

func TestEventRegions(t *testing.T) {
	p, err := asm.Assemble("t.s", `
.data
g: .word 0
.text
main:
	lw $t0, g              # data access (via $at)
	sw $t0, -4($sp)        # stack access
	li $v0, 9
	li $a0, 64
	syscall
	lw $t1, 0($v0)         # heap access
	jr $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	var regions []region.Region
	if err := m.Run(context.Background(), 0, func(ev Event) {
		if ev.Inst.IsMem() {
			regions = append(regions, ev.Region)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []region.Region{region.Data, region.Stack, region.Heap}
	if len(regions) != len(want) {
		t.Fatalf("regions = %v, want %v", regions, want)
	}
	for i := range want {
		if regions[i] != want[i] {
			t.Errorf("region[%d] = %v, want %v", i, regions[i], want[i])
		}
	}
}

func TestEventSequenceNumbers(t *testing.T) {
	p, err := asm.Assemble("t.s", "main:\n nop\n nop\n jr $ra\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := m.Run(context.Background(), 0, func(ev Event) { seqs = append(seqs, ev.Seq) }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("retired %d, want 3", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Errorf("seq[%d] = %d", i, s)
		}
	}
	if m.Seq() != 3 {
		t.Errorf("Seq() = %d", m.Seq())
	}
}

func TestInstructionBudget(t *testing.T) {
	p, err := asm.Assemble("t.s", "main:\nloop:\n b loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	// Run truncates at its limit without an error.
	if err := m.Run(context.Background(), 100, nil); err != nil {
		t.Fatalf("truncated run: %v", err)
	}
	if m.Seq() != 100 || m.Halted() {
		t.Errorf("after the limit: Seq() = %d, Halted() = %v; want 100, false", m.Seq(), m.Halted())
	}
}

func TestInitialRegisters(t *testing.T) {
	p, err := asm.Assemble("t.s", "main:\n jr $ra\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reg(isa.GP) != prog.GPValue {
		t.Errorf("$gp = %#x", m.Reg(isa.GP))
	}
	if m.Reg(isa.SP) != prog.StackTop-16 {
		t.Errorf("$sp = %#x", m.Reg(isa.SP))
	}
	if m.Reg(isa.RA) != HaltPC {
		t.Errorf("$ra = %#x", m.Reg(isa.RA))
	}
}
