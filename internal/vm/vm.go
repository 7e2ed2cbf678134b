// Package vm implements the functional RISA simulator: it executes a
// linked program instruction by instruction, maintaining architectural
// state, the data/heap/stack layout, and a small syscall layer (sbrk,
// print, exit). Both the profiler and the timing simulator's trace
// generator drive programs through this machine and observe each retired
// instruction via the Event it returns.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/region"
)

// HaltPC is the sentinel return address planted in $ra at startup: when
// main returns to it, or when the exit syscall runs, the machine halts.
const HaltPC uint32 = 0

// Syscall numbers (passed in $v0), a subset of the SPIM conventions.
const (
	SysPrintInt   = 1
	SysPrintFloat = 2
	SysPrintStr   = 4
	SysSbrk       = 9
	SysExit       = 10
	SysPrintChar  = 11
)

// Event describes one retired instruction. The Mem* fields are only
// meaningful when Inst.IsMem(); Taken only when the instruction is a
// control transfer.
type Event struct {
	Seq     uint64   // dynamic instruction number (0-based)
	PC      uint32   // address of the instruction
	Index   int      // static instruction index (PC-derived)
	Inst    isa.Inst // the decoded instruction
	NextPC  uint32   // PC after this instruction
	MemAddr uint32   // effective address of a load/store
	MemSize int      // access width in bytes
	Region  region.Region
	Taken   bool // branch/jump transferred control
	Done    bool // machine halted at/after this instruction
	Exit    int  // exit code, valid when Done
}

// FaultError wraps an execution fault with its dynamic context.
type FaultError struct {
	PC  uint32
	Seq uint64
	Err error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("vm: fault at pc=%#08x (inst %d): %v", e.PC, e.Seq, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Machine is a functional RISA machine. Create one with New, then call
// Run (or Step until the returned event has Done set).
type Machine struct {
	Prog   *prog.Program
	Mem    *mem.Memory
	Layout region.Layout

	pc    uint32
	regs  [isa.NumRegs]uint32
	fregs [isa.NumRegs]uint32 // float32 bit patterns

	seq    uint64
	halted bool
	exit   int
	out    io.Writer

	// MaxInsts is Step's watchdog: Step returns an error past it. Run
	// bounds a run by its own limit instead.
	MaxInsts uint64

	// FaultHook, when non-nil, is consulted before every instruction
	// with the dynamic instruction number and PC about to execute. A
	// non-nil return aborts the step with a FaultError wrapping the
	// returned error. This is the library's deterministic injection
	// point: the fault-injection engine plants architectural memory
	// faults here.
	FaultHook func(seq uint64, pc uint32) error
}

// ErrMaxInsts is wrapped by the FaultError a run returns when it
// exhausts its instruction budget (the MaxInsts watchdog).
var ErrMaxInsts = errors.New("instruction budget exhausted")

// DefaultMaxInsts bounds a run when the caller does not override it.
const DefaultMaxInsts = 200_000_000

// Config describes a machine to build.
type Config struct {
	// Program is the linked program to load (required).
	Program *prog.Program
	// Out receives print-syscall output; nil drops it.
	Out io.Writer
}

// Validate checks the configuration, including the program itself.
func (c Config) Validate() error {
	if c.Program == nil {
		return errors.New("vm: Config.Program is nil")
	}
	return c.Program.Validate()
}

// New loads cfg.Program into a fresh machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Program
	m := &Machine{
		Prog:     p,
		Mem:      mem.New(),
		out:      cfg.Out,
		MaxInsts: DefaultMaxInsts,
	}
	if m.out == nil {
		m.out = io.Discard
	}
	layout, err := p.LoadInto(m.Mem)
	if err != nil {
		return nil, err
	}
	m.Layout = layout
	m.pc = p.Entry
	m.regs[isa.GP] = prog.GPValue
	m.regs[isa.SP] = prog.StackTop - 16
	m.regs[isa.FP] = prog.StackTop - 16
	m.regs[isa.RA] = HaltPC
	return m, nil
}

// PC reports the current program counter.
func (m *Machine) PC() uint32 { return m.pc }

// Seq reports how many instructions have retired.
func (m *Machine) Seq() uint64 { return m.seq }

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// ExitCode reports the program's exit code (valid once halted).
func (m *Machine) ExitCode() int { return m.exit }

// Reg reads a general-purpose register.
func (m *Machine) Reg(r isa.Register) uint32 { return m.regs[r] }

// SetReg writes a general-purpose register ($zero writes are dropped).
func (m *Machine) SetReg(r isa.Register, v uint32) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// FReg reads a floating-point register as its float32 value.
func (m *Machine) FReg(r isa.Register) float32 {
	return math.Float32frombits(m.fregs[r])
}

func (m *Machine) fault(err error) (Event, error) {
	return Event{}, &FaultError{PC: m.pc, Seq: m.seq, Err: err}
}

// Step executes one instruction and reports what happened. It faults
// with ErrMaxInsts once MaxInsts instructions have retired.
func (m *Machine) Step() (Event, error) {
	if m.halted {
		return Event{Done: true, Exit: m.exit, Seq: m.seq, PC: m.pc}, nil
	}
	if m.seq >= m.MaxInsts {
		return m.fault(fmt.Errorf("%w (budget %d)", ErrMaxInsts, m.MaxInsts))
	}
	return m.step()
}

// step executes one instruction of a running machine.
func (m *Machine) step() (Event, error) {
	if m.FaultHook != nil {
		if err := m.FaultHook(m.seq, m.pc); err != nil {
			return m.fault(err)
		}
	}
	idx, ok := m.Prog.PC2Index(m.pc)
	if !ok {
		return m.fault(fmt.Errorf("pc outside text segment"))
	}
	in := m.Prog.Text[idx]
	ev := Event{Seq: m.seq, PC: m.pc, Index: idx, Inst: in}
	next := m.pc + isa.InstBytes

	r := func(x isa.Register) uint32 { return m.regs[x] }
	rs, rd := r(in.Rs), r(in.Rd)
	sImm := in.Imm

	switch in.Op {
	case isa.OpNop:

	case isa.OpReg:
		rt := r(in.Rt)
		var v uint32
		switch in.Funct {
		case isa.FnADD:
			v = rs + rt
		case isa.FnSUB:
			v = rs - rt
		case isa.FnMUL:
			v = uint32(int32(rs) * int32(rt))
		case isa.FnMULH:
			v = uint32((int64(int32(rs)) * int64(int32(rt))) >> 32)
		case isa.FnDIV:
			if rt == 0 {
				return m.fault(fmt.Errorf("integer divide by zero"))
			}
			v = uint32(int32(rs) / int32(rt))
		case isa.FnREM:
			if rt == 0 {
				return m.fault(fmt.Errorf("integer modulo by zero"))
			}
			v = uint32(int32(rs) % int32(rt))
		case isa.FnAND:
			v = rs & rt
		case isa.FnOR:
			v = rs | rt
		case isa.FnXOR:
			v = rs ^ rt
		case isa.FnNOR:
			v = ^(rs | rt)
		case isa.FnSLL:
			v = rs << (rt & 31)
		case isa.FnSRL:
			v = rs >> (rt & 31)
		case isa.FnSRA:
			v = uint32(int32(rs) >> (rt & 31))
		case isa.FnSLT:
			if int32(rs) < int32(rt) {
				v = 1
			}
		case isa.FnSLTU:
			if rs < rt {
				v = 1
			}
		}
		m.SetReg(in.Rd, v)

	case isa.OpFP:
		if err := m.stepFP(in); err != nil {
			return m.fault(err)
		}

	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWC1,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSWC1:
		addr := rs + uint32(sImm)
		ev.MemAddr = addr
		ev.MemSize = in.MemSize()
		ev.Region = m.Layout.Classify(addr)
		if err := m.access(in, addr); err != nil {
			return m.fault(err)
		}

	case isa.OpADDI:
		m.SetReg(in.Rd, rs+uint32(sImm))
	case isa.OpANDI:
		m.SetReg(in.Rd, rs&uint32(uint16(sImm)))
	case isa.OpORI:
		m.SetReg(in.Rd, rs|uint32(uint16(sImm)))
	case isa.OpXORI:
		m.SetReg(in.Rd, rs^uint32(uint16(sImm)))
	case isa.OpSLTI:
		var v uint32
		if int32(rs) < sImm {
			v = 1
		}
		m.SetReg(in.Rd, v)
	case isa.OpSLLI:
		m.SetReg(in.Rd, rs<<(uint32(sImm)&31))
	case isa.OpSRLI:
		m.SetReg(in.Rd, rs>>(uint32(sImm)&31))
	case isa.OpSRAI:
		m.SetReg(in.Rd, uint32(int32(rs)>>(uint32(sImm)&31)))
	case isa.OpLUI:
		m.SetReg(in.Rd, uint32(sImm)<<16)

	case isa.OpBEQ:
		if rs == rd {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}
	case isa.OpBNE:
		if rs != rd {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}
	case isa.OpBLEZ:
		if int32(rs) <= 0 {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}
	case isa.OpBGTZ:
		if int32(rs) > 0 {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}
	case isa.OpBLTZ:
		if int32(rs) < 0 {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}
	case isa.OpBGEZ:
		if int32(rs) >= 0 {
			next = branchTarget(m.pc, sImm)
			ev.Taken = true
		}

	case isa.OpJ:
		next = uint32(sImm) * isa.InstBytes
		ev.Taken = true
	case isa.OpJAL:
		m.SetReg(isa.RA, m.pc+isa.InstBytes)
		next = uint32(sImm) * isa.InstBytes
		ev.Taken = true
	case isa.OpJR:
		next = rs
		ev.Taken = true
	case isa.OpJALR:
		m.SetReg(in.Rd, m.pc+isa.InstBytes)
		next = rs
		ev.Taken = true

	case isa.OpSYSCALL:
		done, err := m.syscall()
		if err != nil {
			return m.fault(err)
		}
		if done {
			m.halted = true
		}

	default:
		return m.fault(fmt.Errorf("unimplemented opcode %v", in.Op))
	}

	m.seq++
	if next == HaltPC && !m.halted {
		// main returned to the sentinel: clean exit with $v0.
		m.halted = true
		m.exit = int(int32(m.regs[isa.V0]))
	}
	m.pc = next
	ev.NextPC = next
	ev.Done = m.halted
	ev.Exit = m.exit
	return ev, nil
}

func branchTarget(pc uint32, off int32) uint32 {
	return uint32(int64(pc) + isa.InstBytes + int64(off)*isa.InstBytes)
}

func (m *Machine) stepFP(in isa.Inst) error {
	f := func(x isa.Register) float32 { return math.Float32frombits(m.fregs[x]) }
	setf := func(x isa.Register, v float32) { m.fregs[x] = math.Float32bits(v) }
	fs, ft := f(in.Rs), f(in.Rt)
	switch in.Funct {
	case isa.FnFADD:
		setf(in.Rd, fs+ft)
	case isa.FnFSUB:
		setf(in.Rd, fs-ft)
	case isa.FnFMUL:
		setf(in.Rd, fs*ft)
	case isa.FnFDIV:
		setf(in.Rd, fs/ft) // IEEE semantics: inf/NaN, no trap
	case isa.FnFNEG:
		setf(in.Rd, -fs)
	case isa.FnFABS:
		setf(in.Rd, float32(math.Abs(float64(fs))))
	case isa.FnFSQRT:
		setf(in.Rd, float32(math.Sqrt(float64(fs))))
	case isa.FnCEQ:
		m.SetReg(in.Rd, b2u(fs == ft))
	case isa.FnCLT:
		m.SetReg(in.Rd, b2u(fs < ft))
	case isa.FnCLE:
		m.SetReg(in.Rd, b2u(fs <= ft))
	case isa.FnCVTSW:
		setf(in.Rd, float32(int32(m.regs[in.Rs])))
	case isa.FnCVTWS:
		m.SetReg(in.Rd, uint32(int32(fs)))
	case isa.FnMFC1:
		m.SetReg(in.Rd, m.fregs[in.Rs])
	case isa.FnMTC1:
		m.fregs[in.Rd] = m.regs[in.Rs]
	default:
		return fmt.Errorf("unimplemented fp funct %d", in.Funct)
	}
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) access(in isa.Inst, addr uint32) error {
	switch in.Op {
	case isa.OpLB:
		m.SetReg(in.Rd, uint32(int32(int8(m.Mem.LoadByte(addr)))))
	case isa.OpLBU:
		m.SetReg(in.Rd, uint32(m.Mem.LoadByte(addr)))
	case isa.OpLH:
		v, err := m.Mem.ReadHalf(addr)
		if err != nil {
			return err
		}
		m.SetReg(in.Rd, uint32(int32(int16(v))))
	case isa.OpLHU:
		v, err := m.Mem.ReadHalf(addr)
		if err != nil {
			return err
		}
		m.SetReg(in.Rd, uint32(v))
	case isa.OpLW:
		v, err := m.Mem.ReadWord(addr)
		if err != nil {
			return err
		}
		m.SetReg(in.Rd, v)
	case isa.OpLWC1:
		v, err := m.Mem.ReadWord(addr)
		if err != nil {
			return err
		}
		m.fregs[in.Rd] = v
	case isa.OpSB:
		m.Mem.StoreByte(addr, byte(m.regs[in.Rd]))
	case isa.OpSH:
		return m.Mem.WriteHalf(addr, uint16(m.regs[in.Rd]))
	case isa.OpSW:
		return m.Mem.WriteWord(addr, m.regs[in.Rd])
	case isa.OpSWC1:
		return m.Mem.WriteWord(addr, m.fregs[in.Rd])
	}
	return nil
}

func (m *Machine) syscall() (done bool, err error) {
	code := m.regs[isa.V0]
	a0 := m.regs[isa.A0]
	switch code {
	case SysPrintInt:
		fmt.Fprintf(m.out, "%d", int32(a0))
	case SysPrintFloat:
		fmt.Fprintf(m.out, "%g", math.Float32frombits(a0))
	case SysPrintStr:
		fmt.Fprint(m.out, m.Mem.ReadCString(a0, 4096))
	case SysPrintChar:
		fmt.Fprintf(m.out, "%c", rune(a0))
	case SysSbrk:
		old := m.Layout.Brk
		grow := int32(a0)
		nb := int64(old) + int64(grow)
		if nb < int64(m.Layout.HeapBase) || nb >= int64(m.Layout.StackFloor) {
			return false, fmt.Errorf("sbrk(%d): heap would leave [%#x,%#x)",
				grow, m.Layout.HeapBase, m.Layout.StackFloor)
		}
		m.Layout.Brk = uint32(nb)
		m.SetReg(isa.V0, old)
	case SysExit:
		m.exit = int(int32(a0))
		return true, nil
	default:
		return false, fmt.Errorf("unknown syscall %d", code)
	}
	return false, nil
}

// Run steps the machine until it halts, faults, or has retired limit
// instructions (0 means DefaultMaxInsts), invoking observe, when
// non-nil, for every retired instruction. Reaching the limit truncates
// the run without an error, leaving Halted false. Every 1024
// instructions Run polls ctx, unless ctx can never be cancelled; a
// cancelled run returns a FaultError wrapping ctx.Err().
func (m *Machine) Run(ctx context.Context, limit uint64, observe func(Event)) error {
	if limit == 0 {
		limit = DefaultMaxInsts
	}
	done := ctx.Done()
	for !m.halted && m.seq < limit {
		if done != nil && m.seq&0x3FF == 0 {
			if err := ctx.Err(); err != nil {
				return &FaultError{PC: m.pc, Seq: m.seq, Err: err}
			}
		}
		ev, err := m.step()
		if err != nil {
			return err
		}
		if observe != nil {
			observe(ev)
		}
	}
	return nil
}
