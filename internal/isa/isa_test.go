package isa

import (
	"testing"
	"testing/quick"
)

func TestRegByName(t *testing.T) {
	cases := []struct {
		in   string
		want Register
		ok   bool
	}{
		{"$sp", SP, true}, {"sp", SP, true}, {"$fp", FP, true},
		{"$gp", GP, true}, {"$ra", RA, true}, {"$zero", Zero, true},
		{"r29", SP, true}, {"$29", SP, true}, {"t0", T0, true},
		{"$v0", V0, true}, {"a3", A3, true}, {"s7", S7, true},
		{"$bogus", 0, false}, {"r32", 0, false}, {"", 0, false},
	}
	for _, c := range cases {
		got, ok := RegByName(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("RegByName(%q) = (%v,%v), want (%v,%v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFPRegByName(t *testing.T) {
	if r, ok := FPRegByName("$f12"); !ok || r != 12 {
		t.Errorf("f12 = %v,%v", r, ok)
	}
	if _, ok := FPRegByName("f32"); ok {
		t.Error("f32 accepted")
	}
	if _, ok := FPRegByName("t0"); ok {
		t.Error("t0 accepted as fp")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   Inst
		want Class
	}{
		{Inst{Op: OpNop}, ClassNop},
		{Inst{Op: OpReg, Funct: FnADD}, ClassIntALU},
		{Inst{Op: OpReg, Funct: FnMUL}, ClassIntMul},
		{Inst{Op: OpReg, Funct: FnREM}, ClassIntDiv},
		{Inst{Op: OpFP, Funct: FnFADD}, ClassFPALU},
		{Inst{Op: OpFP, Funct: FnFMUL}, ClassFPMul},
		{Inst{Op: OpFP, Funct: FnFDIV}, ClassFPDiv},
		{Inst{Op: OpLW}, ClassLoad},
		{Inst{Op: OpSWC1}, ClassStore},
		{Inst{Op: OpBEQ}, ClassBranch},
		{Inst{Op: OpJAL}, ClassCall},
		{Inst{Op: OpJR, Rs: RA}, ClassReturn},
		{Inst{Op: OpJR, Rs: T0}, ClassJump},
		{Inst{Op: OpSYSCALL}, ClassSyscall},
	}
	for _, c := range cases {
		if got := c.in.Classify(); got != c.want {
			t.Errorf("%v classifies as %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMemIntrospection(t *testing.T) {
	lw := Inst{Op: OpLW, Rd: T0, Rs: SP, Imm: 8}
	if !lw.IsMem() || !lw.IsLoad() || lw.IsStore() {
		t.Error("lw predicates")
	}
	if base, ok := lw.BaseReg(); !ok || base != SP {
		t.Error("lw base register")
	}
	if lw.MemSize() != 4 {
		t.Error("lw size")
	}
	sb := Inst{Op: OpSB, Rd: T1, Rs: GP}
	if sb.MemSize() != 1 || !sb.IsStore() {
		t.Error("sb predicates")
	}
	if _, ok := (Inst{Op: OpADDI}).BaseReg(); ok {
		t.Error("non-mem has a base register")
	}
	ls := Inst{Op: OpLWC1, Rd: 4, Rs: T2}
	if !ls.IsFPMem() || ls.MemSize() != 4 {
		t.Error("l.s predicates")
	}
}

func TestSourcesAndDests(t *testing.T) {
	// sw $t1, 8($sp): reads sp (base) and t1 (data), writes nothing.
	sw := Inst{Op: OpSW, Rd: T1, Rs: SP, Imm: 8}
	if srcs, n := sw.Sources(); n != 2 || srcs[0] != SP || srcs[1] != T1 {
		t.Errorf("sw sources = %v", srcs[:n])
	}
	if _, ok := sw.Dest(); ok {
		t.Error("sw has a dest")
	}
	// lw writes its Rd.
	lw := Inst{Op: OpLW, Rd: T3, Rs: GP}
	if d, ok := lw.Dest(); !ok || d != T3 {
		t.Error("lw dest")
	}
	// jal writes $ra.
	if d, ok := (Inst{Op: OpJAL}).Dest(); !ok || d != RA {
		t.Error("jal dest")
	}
	// s.s reads the FP data register.
	ss := Inst{Op: OpSWC1, Rd: 5, Rs: SP}
	if fs, n := ss.FPSources(); n != 1 || fs[0] != 5 {
		t.Errorf("s.s fp sources = %v", fs[:n])
	}
	// add.s writes an FP register.
	adds := Inst{Op: OpFP, Funct: FnFADD, Rd: 2, Rs: 0, Rt: 1}
	if d, ok := adds.FPDest(); !ok || d != 2 {
		t.Error("add.s fp dest")
	}
	if _, ok := adds.Dest(); ok {
		t.Error("add.s int dest")
	}
	// c.lt.s writes an int register from FP sources.
	clt := Inst{Op: OpFP, Funct: FnCLT, Rd: T0, Rs: 1, Rt: 2}
	if d, ok := clt.Dest(); !ok || d != T0 {
		t.Error("c.lt.s int dest")
	}
	if fs, n := clt.FPSources(); n != 2 {
		t.Errorf("c.lt.s fp sources = %v", fs[:n])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(0xFFFF_FFFF); err == nil {
		t.Error("garbage decoded")
	}
	// OpReg with out-of-range funct.
	w := uint32(OpReg)<<26 | 0x7FF
	if _, err := Decode(w); err == nil {
		t.Error("bad funct decoded")
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	if _, err := Encode(Inst{Op: OpADDI, Imm: 40000}); err == nil {
		t.Error("oversized immediate encoded")
	}
	if _, err := Encode(Inst{Op: OpJ, Imm: -1}); err == nil {
		t.Error("negative jump target encoded")
	}
}

// Property: every well-formed I-format instruction round-trips.
func TestRoundTripAllOpsProperty(t *testing.T) {
	ops := []Op{OpLW, OpSW, OpADDI, OpORI, OpBEQ, OpSLTI, OpLUI, OpLB, OpSH}
	f := func(opIdx uint8, rd, rs uint8, imm int16) bool {
		in := Inst{
			Op: ops[int(opIdx)%len(ops)],
			Rd: Register(rd % 32), Rs: Register(rs % 32),
			Imm: int32(imm),
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(w)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: R-format instructions round-trip across all functs.
func TestRoundTripRFormatProperty(t *testing.T) {
	f := func(fn uint16, rd, rs, rt uint8) bool {
		in := Inst{
			Op: OpReg, Funct: Funct(fn) % (FnSLTU + 1),
			Rd: Register(rd % 32), Rs: Register(rs % 32), Rt: Register(rt % 32),
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(w)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Inst{
		"lw $t0, 8($sp)":      {Op: OpLW, Rd: T0, Rs: SP, Imm: 8},
		"add $v0, $a0, $a1":   {Op: OpReg, Funct: FnADD, Rd: V0, Rs: A0, Rt: A1},
		"add.s $f2, $f0, $f1": {Op: OpFP, Funct: FnFADD, Rd: 2, Rs: 0, Rt: 1},
		"jr $ra":              {Op: OpJR, Rs: RA},
		"syscall":             {Op: OpSYSCALL},
		"s.s $f4, -12($fp)":   {Op: OpSWC1, Rd: 4, Rs: FP, Imm: -12},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
