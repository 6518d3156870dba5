package isa

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterHelper(t *testing.T) {
	if R(5) != Reg(5) {
		t.Fatalf("R(5) = %d", R(5))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("R(32) did not panic")
		}
	}()
	R(NumRegs)
}

func TestInstrPredicates(t *testing.T) {
	cases := []struct {
		ins                          Instr
		mem, load, store, atomic, br bool
	}{
		{Instr{Op: LD}, true, true, false, false, false},
		{Instr{Op: ST}, true, false, true, false, false},
		{Instr{Op: AMOADD}, true, true, true, true, false},
		{Instr{Op: AMOSWAP}, true, true, true, true, false},
		{Instr{Op: CAS}, true, true, true, true, false},
		{Instr{Op: ADD}, false, false, false, false, false},
		{Instr{Op: BEQ}, false, false, false, false, true},
		{Instr{Op: FENCE}, false, false, false, false, false},
		{Instr{Op: JMP}, false, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.ins.IsMem(); got != c.mem {
			t.Errorf("%v IsMem = %v", c.ins.Op, got)
		}
		if got := c.ins.IsLoad(); got != c.load {
			t.Errorf("%v IsLoad = %v", c.ins.Op, got)
		}
		if got := c.ins.IsStore(); got != c.store {
			t.Errorf("%v IsStore = %v", c.ins.Op, got)
		}
		if got := c.ins.IsAtomic(); got != c.atomic {
			t.Errorf("%v IsAtomic = %v", c.ins.Op, got)
		}
		if got := c.ins.IsBranch(); got != c.br {
			t.Errorf("%v IsBranch = %v", c.ins.Op, got)
		}
	}
}

func TestWritesReg(t *testing.T) {
	if (Instr{Op: ADD, Rd: 0}).WritesReg() {
		t.Errorf("write to R0 should not count")
	}
	if !(Instr{Op: LD, Rd: 3}).WritesReg() {
		t.Errorf("LD r3 writes a register")
	}
	if (Instr{Op: ST, Rd: 3}).WritesReg() {
		t.Errorf("ST writes no register")
	}
	if !(Instr{Op: CAS, Rd: 3}).ReadsRd() {
		t.Errorf("CAS reads Rd (expected value)")
	}
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		ins    Instr
		s1, s2 uint64
		want   uint64
	}{
		{Instr{Op: ADD}, 2, 3, 5},
		{Instr{Op: SUB}, 2, 3, ^uint64(0)},
		{Instr{Op: MUL}, 7, 6, 42},
		{Instr{Op: AND}, 0b1100, 0b1010, 0b1000},
		{Instr{Op: OR}, 0b1100, 0b1010, 0b1110},
		{Instr{Op: XOR}, 0b1100, 0b1010, 0b0110},
		{Instr{Op: SLL}, 1, 4, 16},
		{Instr{Op: SRL}, 16, 4, 1},
		{Instr{Op: SLT}, ^uint64(0), 0, 1}, // -1 < 0 signed
		{Instr{Op: SLTU}, ^uint64(0), 0, 0},
		{Instr{Op: ADDI, Imm: -1}, 5, 0, 4},
		{Instr{Op: ANDI, Imm: 0xF}, 0x1234, 0, 4},
		{Instr{Op: ORI, Imm: 1}, 2, 0, 3},
		{Instr{Op: XORI, Imm: 3}, 1, 0, 2},
		{Instr{Op: SLLI, Imm: 3}, 1, 0, 8},
		{Instr{Op: SRLI, Imm: 3}, 8, 0, 1},
		{Instr{Op: SLTI, Imm: 10}, 3, 0, 1},
		{Instr{Op: LI, Imm: -7}, 0, 0, uint64(0xFFFFFFFFFFFFFFF9)},
	}
	for _, c := range cases {
		if got := EvalALU(c.ins, c.s1, c.s2); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d) = %d, want %d", c.ins, c.s1, c.s2, got, c.want)
		}
	}
}

func TestEvalALUPanicsOnNonALU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	EvalALU(Instr{Op: LD}, 0, 0)
}

func TestBranchTaken(t *testing.T) {
	neg := ^uint64(0) // -1
	cases := []struct {
		op     Op
		s1, s2 uint64
		want   bool
	}{
		{BEQ, 4, 4, true}, {BEQ, 4, 5, false},
		{BNE, 4, 5, true}, {BNE, 4, 4, false},
		{BLT, neg, 0, true}, {BLT, 0, neg, false},
		{BGE, 0, neg, true}, {BGE, neg, 0, false}, {BGE, 3, 3, true},
	}
	for _, c := range cases {
		if got := BranchTaken(Instr{Op: c.op}, c.s1, c.s2); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v", c.op, c.s1, c.s2, got)
		}
	}
}

func TestAmoApply(t *testing.T) {
	if v, w := AmoApply(Instr{Op: AMOADD}, 10, 5, 0); v != 15 || !w {
		t.Errorf("AMOADD = %d,%v", v, w)
	}
	if v, w := AmoApply(Instr{Op: AMOSWAP}, 10, 5, 0); v != 5 || !w {
		t.Errorf("AMOSWAP = %d,%v", v, w)
	}
	if v, w := AmoApply(Instr{Op: CAS}, 10, 99, 10); v != 99 || !w {
		t.Errorf("CAS success = %d,%v", v, w)
	}
	if v, w := AmoApply(Instr{Op: CAS}, 10, 99, 11); v != 10 || w {
		t.Errorf("CAS failure = %d,%v", v, w)
	}
}

// Property: ADD/XOR identities hold for arbitrary operands.
func TestEvalALUProperties(t *testing.T) {
	addComm := func(a, b uint64) bool {
		return EvalALU(Instr{Op: ADD}, a, b) == EvalALU(Instr{Op: ADD}, b, a)
	}
	if err := quick.Check(addComm, nil); err != nil {
		t.Errorf("ADD not commutative: %v", err)
	}
	xorInv := func(a, b uint64) bool {
		x := EvalALU(Instr{Op: XOR}, a, b)
		return EvalALU(Instr{Op: XOR}, x, b) == a
	}
	if err := quick.Check(xorInv, nil); err != nil {
		t.Errorf("XOR not involutive: %v", err)
	}
	subAdd := func(a, b uint64) bool {
		return EvalALU(Instr{Op: ADD}, EvalALU(Instr{Op: SUB}, a, b), b) == a
	}
	if err := quick.Check(subAdd, nil); err != nil {
		t.Errorf("SUB/ADD not inverse: %v", err)
	}
}

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(R(1), 0).Li(R(2), 10)
	b.Label("top")
	b.Addi(R(1), R(1), 1)
	b.Bne(R(1), R(2), "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[3].Imm != 2 {
		t.Errorf("branch target = %d, want 2", p.Code[3].Imm)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	if p.Code[0].Imm != 2 {
		t.Errorf("jmp target = %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("missing")
	if _, err := b.Build(); err == nil {
		t.Errorf("undefined label should fail")
	}
	b2 := NewBuilder("dup")
	b2.Label("x")
	b2.Label("x")
	if _, err := b2.Build(); err == nil {
		t.Errorf("duplicate label should fail")
	}
}

func TestThreadLoopSum(t *testing.T) {
	// Sum 1..10 into r3.
	b := NewBuilder("sum")
	b.Li(R(1), 1).Li(R(2), 11).Li(R(3), 0)
	b.Label("loop")
	b.Add(R(3), R(3), R(1))
	b.Addi(R(1), R(1), 1)
	b.Bne(R(1), R(2), "loop")
	b.Halt()
	th := &Thread{Prog: b.MustBuild()}
	if err := th.Run(NewFlatMemory(), 1000); err != nil {
		t.Fatal(err)
	}
	if th.Regs[3] != 55 {
		t.Errorf("sum = %d, want 55", th.Regs[3])
	}
	if !th.Halted {
		t.Errorf("thread should be halted")
	}
}

func TestThreadMemoryAndAtomics(t *testing.T) {
	b := NewBuilder("mem")
	b.Li(R(1), 0x100)
	b.Li(R(2), 42)
	b.St(R(2), R(1), 0)
	b.Ld(R(3), R(1), 0)
	b.Li(R(4), 8)
	b.AmoAdd(R(5), R(4), R(1), 0, 0) // r5=42, mem=50
	b.Li(R(6), 99)
	b.AmoSwap(R(7), R(6), R(1), 0, 0) // r7=50, mem=99
	b.Li(R(8), 1)
	b.Mov(R(9), R(6))             // expected 99
	b.Cas(R(9), R(8), R(1), 0, 0) // success: mem=1, r9=99
	b.Li(R(10), 77)
	b.Cas(R(10), R(8), R(1), 0, 0) // fail: r10=1, mem stays 1
	b.Halt()
	mem := NewFlatMemory()
	th := &Thread{Prog: b.MustBuild()}
	if err := th.Run(mem, 1000); err != nil {
		t.Fatal(err)
	}
	if th.Regs[3] != 42 || th.Regs[5] != 42 || th.Regs[7] != 50 || th.Regs[9] != 99 || th.Regs[10] != 1 {
		t.Errorf("regs = %v", th.Regs[:11])
	}
	if got := mem.Load(0x100); got != 1 {
		t.Errorf("mem = %d, want 1", got)
	}
}

func TestThreadInputs(t *testing.T) {
	b := NewBuilder("in")
	b.In(R(1)).In(R(2)).Halt()
	th := &Thread{Prog: b.MustBuild(), Inputs: []uint64{7, 9}}
	if err := th.Run(NewFlatMemory(), 10); err != nil {
		t.Fatal(err)
	}
	if th.Regs[1] != 7 || th.Regs[2] != 9 {
		t.Errorf("inputs = %d,%d", th.Regs[1], th.Regs[2])
	}
	th2 := &Thread{Prog: th.Prog}
	if err := th2.Run(NewFlatMemory(), 10); err != ErrOutOfInput {
		t.Errorf("want ErrOutOfInput, got %v", err)
	}
}

func TestThreadPCOutOfRange(t *testing.T) {
	b := NewBuilder("fall")
	b.Nop()
	th := &Thread{Prog: b.MustBuild()}
	if err := th.Step(NewFlatMemory()); err != nil {
		t.Fatal(err)
	}
	if err := th.Step(NewFlatMemory()); err == nil {
		t.Errorf("PC past end should error")
	}
}

func TestThreadMaxSteps(t *testing.T) {
	b := NewBuilder("spin")
	b.Label("l")
	b.Jmp("l")
	th := &Thread{Prog: b.MustBuild()}
	if err := th.Run(NewFlatMemory(), 100); err == nil {
		t.Errorf("infinite loop should hit step bound")
	}
}

func TestR0Invariant(t *testing.T) {
	b := NewBuilder("r0")
	b.Li(R(0), 123).Addi(R(1), R(0), 5).Halt()
	th := &Thread{Prog: b.MustBuild()}
	if err := th.Run(NewFlatMemory(), 10); err != nil {
		t.Fatal(err)
	}
	if th.Regs[0] != 0 || th.Regs[1] != 5 {
		t.Errorf("r0=%d r1=%d", th.Regs[0], th.Regs[1])
	}
}

func TestInstrString(t *testing.T) {
	checks := map[string]Instr{
		"ld r1, 8(r2)":         {Op: LD, Rd: 1, Rs1: 2, Imm: 8},
		"st r3, 0(r4)":         {Op: ST, Rs1: 4, Rs2: 3},
		"ld.acq r1, 0(r2)":     {Op: LD, Rd: 1, Rs1: 2, Flags: FlagAcquire},
		"st.rel r3, 0(r4)":     {Op: ST, Rs1: 4, Rs2: 3, Flags: FlagRelease},
		"beq r1, r2, @7":       {Op: BEQ, Rs1: 1, Rs2: 2, Imm: 7},
		"li r5, -3":            {Op: LI, Rd: 5, Imm: -3},
		"amoadd r1, r2, 0(r3)": {Op: AMOADD, Rd: 1, Rs2: 2, Rs1: 3},
		"fence":                {Op: FENCE},
		"jmp @4":               {Op: JMP, Imm: 4},
		"in r9":                {Op: IN, Rd: 9},
		"add r1, r2, r3":       {Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, 9":       {Op: ADDI, Rd: 1, Rs1: 2, Imm: 9},
	}
	for want, ins := range checks {
		if got := ins.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Errorf("unknown op should render numerically")
	}
}

func TestFlatMemorySnapshot(t *testing.T) {
	var m FlatMemory // the zero value is an empty memory
	if got := m.Load(0x40); got != 0 {
		t.Fatalf("Load on the zero value = %d", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Load(1 << 50) }); allocs != 0 {
		t.Fatalf("Load from an unwritten page allocates %.0f objects", allocs)
	}
	m.Store(0x10, 5)
	m.Store(0x18, 0)        // zero values dropped from snapshot
	m.Store(0x13, 7)        // unaligned rounds down to 0x10
	m.Store(0x1ff, 4)       // the last word of the first page
	m.Store(1<<50+0x1f8, 3) // a far page
	want := map[uint64]uint64{0x10: 7, 0x1f8: 4, 1<<50 + 0x1f8: 3}
	if snap := m.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Errorf("snapshot = %v, want %v", snap, want)
	}
	for a, v := range want {
		if got := m.Load(a); got != v {
			t.Errorf("Load(%#x) = %d, want %d", a, got, v)
		}
	}
}
