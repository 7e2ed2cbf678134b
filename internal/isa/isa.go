// Package isa defines RISA, the 32-bit RISC instruction set used by every
// component of this reproduction: the MiniC compiler targets it, the
// assembler encodes it, the functional simulator executes it, and the
// timing simulator models it.
//
// RISA is deliberately close to SimpleScalar's PISA / MIPS: 32 general
// registers with the MIPS software conventions ($gp, $sp, $fp, $ra), 32
// float32 registers, fixed 32-bit encodings, and base+displacement
// addressing for every load and store. The paper's static access-region
// heuristics key on exactly this addressing-mode information (base
// register is $sp/$fp -> stack, $gp -> non-stack, r0 -> constant address),
// so the ISA exposes it via BaseReg and friends.
package isa

import "fmt"

// Register names the 32 general-purpose registers. r0 is hard-wired to
// zero. The software conventions mirror MIPS o32, which is what the
// paper's heuristics assume.
type Register uint8

// General-purpose register conventions.
const (
	Zero Register = 0 // hard-wired zero
	AT   Register = 1 // assembler temporary
	V0   Register = 2 // function result
	V1   Register = 3 // function result (second word)
	A0   Register = 4 // argument 0
	A1   Register = 5 // argument 1
	A2   Register = 6 // argument 2
	A3   Register = 7 // argument 3
	T0   Register = 8 // caller-saved temporaries T0..T7
	T1   Register = 9
	T2   Register = 10
	T3   Register = 11
	T4   Register = 12
	T5   Register = 13
	T6   Register = 14
	T7   Register = 15
	S0   Register = 16 // callee-saved S0..S7
	S1   Register = 17
	S2   Register = 18
	S3   Register = 19
	S4   Register = 20
	S5   Register = 21
	S6   Register = 22
	S7   Register = 23
	T8   Register = 24
	T9   Register = 25
	K0   Register = 26
	K1   Register = 27
	GP   Register = 28 // global pointer: anchors the static data segment
	SP   Register = 29 // stack pointer
	FP   Register = 30 // frame pointer
	RA   Register = 31 // return address (link register; the paper's CID)
)

// NumRegs is the number of general-purpose (and of floating-point)
// registers.
const NumRegs = 32

var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// String returns the conventional register name, e.g. "$sp".
func (r Register) String() string {
	if int(r) < len(regNames) {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// RegByName resolves a register name ("sp", "$sp", "r29", "$29") to its
// number. It reports ok=false for unknown names.
func RegByName(name string) (Register, bool) {
	if len(name) > 0 && name[0] == '$' {
		name = name[1:]
	}
	for i, n := range regNames {
		if n == name {
			return Register(i), true
		}
	}
	// rNN or bare NN
	if len(name) > 0 {
		s := name
		if s[0] == 'r' {
			s = s[1:]
		}
		v := 0
		for _, c := range s {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int(c-'0')
		}
		if len(s) > 0 && v < NumRegs {
			return Register(v), true
		}
	}
	return 0, false
}

// FPRegByName resolves "f0".."f31" (with optional $) to a register index.
func FPRegByName(name string) (Register, bool) {
	if len(name) > 0 && name[0] == '$' {
		name = name[1:]
	}
	if len(name) < 2 || name[0] != 'f' {
		return 0, false
	}
	v := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if v >= NumRegs {
		return 0, false
	}
	return Register(v), true
}

// Op enumerates RISA opcodes. The numeric values are also the primary
// opcode field of the binary encoding (6 bits for I/J formats; R-format
// instructions share OpReg/OpFP with an 11-bit function code).
type Op uint8

// Opcode space. OpReg and OpFP select the R-format function-code space.
const (
	OpNop Op = iota
	OpReg    // R-format integer (funct selects)
	OpFP     // R-format floating point (funct selects)

	// Loads. All use base+displacement addressing: rd <- mem[rs+imm].
	OpLB
	OpLBU
	OpLH
	OpLHU
	OpLW
	OpLWC1 // load float32 into FP register

	// Stores: mem[rs+imm] <- rd.
	OpSB
	OpSH
	OpSW
	OpSWC1 // store float32 from FP register

	// ALU immediates: rd <- rs op imm.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLTI
	OpSLLI
	OpSRLI
	OpSRAI
	OpLUI // rd <- imm << 16

	// Branches: PC-relative, imm counts words from the next instruction.
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	OpBLTZ
	OpBGEZ

	// Jumps.
	OpJ    // absolute word target (26 bits)
	OpJAL  // and link into $ra
	OpJR   // jump register (rs)
	OpJALR // jump register and link into rd

	OpSYSCALL

	numOps
)

// Funct enumerates the R-format function codes used with OpReg and OpFP.
type Funct uint16

// Integer R-format function codes (OpReg).
const (
	FnADD Funct = iota
	FnSUB
	FnMUL
	FnMULH // high 32 bits of signed product
	FnDIV
	FnREM
	FnAND
	FnOR
	FnXOR
	FnNOR
	FnSLL
	FnSRL
	FnSRA
	FnSLT
	FnSLTU
)

// Floating-point R-format function codes (OpFP). Comparison results and
// conversions move between the FP and integer register files: C* write an
// integer register, MTC1/CVTSW read one.
const (
	FnFADD Funct = iota
	FnFSUB
	FnFMUL
	FnFDIV
	FnFNEG
	FnFABS
	FnFSQRT
	FnCEQ   // rd(int) <- fs == ft
	FnCLT   // rd(int) <- fs < ft
	FnCLE   // rd(int) <- fs <= ft
	FnCVTSW // fd <- float32(rs int)
	FnCVTWS // rd(int) <- int32(fs)
	FnMFC1  // rd(int) <- bits(fs)
	FnMTC1  // fd <- bits(rs int)
)

// Inst is one decoded RISA instruction. Rd/Rs/Rt index the integer or FP
// register file depending on the opcode; Imm is the sign-extended
// immediate (or the jump target word index for J/JAL).
type Inst struct {
	Op    Op
	Funct Funct
	Rd    Register // destination (or store source for S*)
	Rs    Register // first source / base register for loads+stores
	Rt    Register // second source
	Imm   int32
}

// Class partitions instructions for the timing model's functional-unit
// selection and the profiler's bookkeeping.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassCall
	ClassReturn
	ClassSyscall
)

var classNames = map[Class]string{
	ClassNop: "nop", ClassIntALU: "ialu", ClassIntMul: "imul",
	ClassIntDiv: "idiv", ClassFPALU: "falu", ClassFPMul: "fmul",
	ClassFPDiv: "fdiv", ClassLoad: "load", ClassStore: "store",
	ClassBranch: "branch", ClassJump: "jump", ClassCall: "call",
	ClassReturn: "return", ClassSyscall: "syscall",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classify reports the instruction's class. JAL and JALR classify as
// calls; JR $ra classifies as a return (the idiom the compiler emits).
func (i Inst) Classify() Class {
	switch i.Op {
	case OpNop:
		return ClassNop
	case OpReg:
		switch i.Funct {
		case FnMUL, FnMULH:
			return ClassIntMul
		case FnDIV, FnREM:
			return ClassIntDiv
		default:
			return ClassIntALU
		}
	case OpFP:
		switch i.Funct {
		case FnFMUL:
			return ClassFPMul
		case FnFDIV, FnFSQRT:
			return ClassFPDiv
		default:
			return ClassFPALU
		}
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWC1:
		return ClassLoad
	case OpSB, OpSH, OpSW, OpSWC1:
		return ClassStore
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLTI, OpSLLI, OpSRLI, OpSRAI, OpLUI:
		return ClassIntALU
	case OpBEQ, OpBNE, OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return ClassBranch
	case OpJ:
		return ClassJump
	case OpJAL:
		return ClassCall
	case OpJR:
		if i.Rs == RA {
			return ClassReturn
		}
		return ClassJump
	case OpJALR:
		return ClassCall
	case OpSYSCALL:
		return ClassSyscall
	}
	return ClassNop
}

// IsMem reports whether the instruction is a load or store.
func (i Inst) IsMem() bool {
	c := i.Classify()
	return c == ClassLoad || c == ClassStore
}

// IsLoad reports whether the instruction is a load.
func (i Inst) IsLoad() bool { return i.Classify() == ClassLoad }

// IsStore reports whether the instruction is a store.
func (i Inst) IsStore() bool { return i.Classify() == ClassStore }

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Classify() == ClassBranch }

// IsFPMem reports whether the instruction moves a floating-point value
// to or from memory.
func (i Inst) IsFPMem() bool { return i.Op == OpLWC1 || i.Op == OpSWC1 }

// BaseReg returns the base (index) register of a load or store; ok is
// false for non-memory instructions. This is the addressing-mode signal
// the paper's static prediction heuristics consume.
func (i Inst) BaseReg() (Register, bool) {
	if !i.IsMem() {
		return 0, false
	}
	return i.Rs, true
}

// MemSize reports the access width in bytes of a load or store (0 for
// non-memory instructions).
func (i Inst) MemSize() int {
	switch i.Op {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLW, OpSW, OpLWC1, OpSWC1:
		return 4
	}
	return 0
}

// Sources returns the integer registers the instruction reads, as the
// first n entries of regs. FP register reads are reported by
// FPSources.
func (i Inst) Sources() (regs [2]Register, n int) {
	switch i.Op {
	case OpReg:
		return [2]Register{i.Rs, i.Rt}, 2
	case OpFP:
		switch i.Funct {
		case FnCVTSW, FnMTC1:
			return [2]Register{i.Rs}, 1
		}
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWC1, OpSWC1,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLTI, OpSLLI, OpSRLI, OpSRAI,
		OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ, OpJR, OpJALR:
		return [2]Register{i.Rs}, 1
	case OpSB, OpSH, OpSW, OpBEQ, OpBNE:
		// Stores read their data, and I-format branches their second
		// comparison operand, from Rd.
		return [2]Register{i.Rs, i.Rd}, 2
	case OpSYSCALL:
		// By convention syscalls read $v0 and $a0.
		return [2]Register{V0, A0}, 2
	}
	return regs, 0
}

// FPSources returns the floating-point registers the instruction reads,
// as the first n entries of regs.
func (i Inst) FPSources() (regs [2]Register, n int) {
	switch i.Op {
	case OpFP:
		switch i.Funct {
		case FnFNEG, FnFABS, FnFSQRT, FnCVTWS, FnMFC1:
			return [2]Register{i.Rs}, 1
		case FnCVTSW, FnMTC1:
			return regs, 0
		default:
			return [2]Register{i.Rs, i.Rt}, 2
		}
	case OpSWC1:
		return [2]Register{i.Rd}, 1
	}
	return regs, 0
}

// Dest returns the integer destination register, or ok=false when the
// instruction does not write an integer register. Writes to $zero are
// reported (the VM discards them).
func (i Inst) Dest() (Register, bool) {
	switch i.Op {
	case OpReg, OpLB, OpLBU, OpLH, OpLHU, OpLW,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLTI, OpSLLI, OpSRLI, OpSRAI, OpLUI:
		return i.Rd, true
	case OpFP:
		switch i.Funct {
		case FnCEQ, FnCLT, FnCLE, FnCVTWS, FnMFC1:
			return i.Rd, true
		}
		return 0, false
	case OpJAL:
		return RA, true
	case OpJALR:
		return i.Rd, true
	case OpSYSCALL:
		return V0, true // result convention
	}
	return 0, false
}

// FPDest returns the floating-point destination register, or ok=false.
func (i Inst) FPDest() (Register, bool) {
	switch i.Op {
	case OpLWC1:
		return i.Rd, true
	case OpFP:
		switch i.Funct {
		case FnFADD, FnFSUB, FnFMUL, FnFDIV, FnFNEG, FnFABS, FnFSQRT,
			FnCVTSW, FnMTC1:
			return i.Rd, true
		}
	}
	return 0, false
}
