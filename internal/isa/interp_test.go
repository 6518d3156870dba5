package isa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomProgram builds an n-instruction program over registers r0-r7
// that exercises every opcode: ALU ops, loads, stores and atomics over
// two nearby pages and one far page, branches and jumps to any index
// (including one past the end, an out-of-range PC), IN, and HALT.
func randomProgram(rng *rand.Rand, n int) Program {
	bases := []int64{0x1000, 0x1200, 1 << 40}
	reg := func() Reg { return Reg(rng.Intn(8)) }
	code := make([]Instr, n)
	for i := range code {
		op := Op(rng.Intn(int(numOps)))
		ins := Instr{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg(), Imm: rng.Int63n(1<<20) - 1<<19}
		switch {
		case op == HALT && rng.Intn(4) != 0:
			ins.Op = ADDI // keep programs running long enough to matter
		case ins.IsMem():
			// Rs1 is r0, so the address is the immediate.
			ins.Rs1 = 0
			ins.Imm = bases[rng.Intn(len(bases))] + int64(rng.Intn(24))*WordSize
		case ins.IsBranch() || op == JMP:
			ins.Imm = int64(rng.Intn(n + 1))
		}
		code[i] = ins
	}
	code[n-1] = Instr{Op: HALT}
	return Program{Name: "random", Code: code}
}

type runOutcome struct {
	Regs    [NumRegs]uint64
	PC      int
	Instret uint64
	InPos   int
	Halted  bool
	Mem     map[uint64]uint64
	Err     string
}

// runSplit runs prog for at most budget instructions as a sequence of
// RunBlock calls whose sizes come from next, and reports the final
// architectural state.
func runSplit(prog Program, inputs []uint64, budget uint64, next func() uint32) runOutcome {
	th := &Thread{Prog: prog, Inputs: inputs}
	th.SetReg(1, 3)
	mem := NewFlatMemory()
	mem.Store(0x1008, 77)
	var err error
	for !th.Halted && th.Instret < budget && err == nil {
		n := min(next(), uint32(budget-th.Instret))
		var ran uint32
		ran, err = th.RunBlock(mem, n)
		if err == nil && ran < n && !th.Halted {
			return runOutcome{Err: fmt.Sprintf("RunBlock ran %d of %d without HALT or error", ran, n)}
		}
	}
	out := runOutcome{Regs: th.Regs, PC: th.PC, Instret: th.Instret, InPos: th.InPos, Halted: th.Halted, Mem: mem.Snapshot()}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// TestRunBlockSplitsAreInvisible: on random programs, running one
// instruction per call and running random-sized blocks reach the same
// registers, PC, retired count, input position, halt state, memory and
// error.
func TestRunBlockSplitsAreInvisible(t *testing.T) {
	halted, failed := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng, 8+rng.Intn(40))
		inputs := make([]uint64, rng.Intn(6))
		for i := range inputs {
			inputs[i] = rng.Uint64()
		}
		const budget = 3000
		want := runSplit(prog, inputs, budget, func() uint32 { return 1 })
		for trial := 0; trial < 4; trial++ {
			got := runSplit(prog, inputs, budget, func() uint32 { return uint32(1 + rng.Intn(64)) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: block run diverges from single steps:\n got %+v\nwant %+v", seed, trial, got, want)
			}
		}
		if want.Halted {
			halted++
		}
		if want.Err != "" {
			failed++
		}
	}
	// The corpus must reach both ways a block ends early.
	if halted == 0 || failed == 0 {
		t.Fatalf("weak corpus: %d programs halted, %d failed", halted, failed)
	}
}

// TestRunBlockMatchesSharedHelpers pins the interpreter's inlined ALU
// and branch cases to EvalALU and BranchTaken, which the out-of-order
// core executes with.
func TestRunBlockMatchesSharedHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	operands := []uint64{0, 1, 63, 64, 1 << 63, ^uint64(0), 0x8000_0000_0000_0001}
	for i := 0; i < 20; i++ {
		operands = append(operands, rng.Uint64())
	}
	for op := NOP; op < numOps; op++ {
		probe := Instr{Op: op, Rd: 3}
		isALU := probe.WritesReg() && !probe.IsMem() && op != IN
		if !isALU && !probe.IsBranch() {
			continue
		}
		for _, a := range operands {
			for _, b := range operands {
				ins := Instr{Op: op, Rd: 3, Rs1: 1, Rs2: 2, Imm: int64(b ^ 0x5a5a), Flags: 0}
				if probe.IsBranch() {
					ins.Imm = 7
				}
				th := &Thread{Prog: Program{Code: []Instr{ins}}}
				th.Regs[1], th.Regs[2] = a, b
				if err := th.Step(NewFlatMemory()); err != nil {
					t.Fatal(err)
				}
				if probe.IsBranch() {
					wantPC := 1
					if BranchTaken(ins, a, b) {
						wantPC = 7
					}
					if th.PC != wantPC {
						t.Fatalf("%v(%#x, %#x): pc %d, want %d", op, a, b, th.PC, wantPC)
					}
				} else if want := EvalALU(ins, a, b); th.Regs[3] != want {
					t.Fatalf("%v(%#x, %#x, imm %d) = %#x, EvalALU %#x", op, a, b, ins.Imm, th.Regs[3], want)
				}
			}
		}
	}
}

// TestRunBlockAllocatesNothing: once the pages a block touches exist,
// running it allocates nothing.
func TestRunBlockAllocatesNothing(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(R(1), 0x2000).Li(R(2), 0).Li(R(3), 64)
	b.Label("l")
	b.Ld(R(4), R(1), 0)
	b.Addi(R(4), R(4), 1)
	b.St(R(4), R(1), 0)
	b.AmoAdd(R(5), R(4), R(1), 8, 0)
	b.Ld(R(6), R(1), 1<<20) // a page that is never written
	b.Addi(R(1), R(1), 8)
	b.Addi(R(2), R(2), 1)
	b.Bne(R(2), R(3), "l")
	b.Halt()
	th := &Thread{Prog: b.MustBuild()}
	mem := NewFlatMemory()
	if err := th.Run(mem, 1<<20); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		th.PC, th.Halted, th.Regs = 0, false, [NumRegs]uint64{}
		if _, err := th.RunBlock(mem, 1<<20); err != nil || !th.Halted {
			t.Fatalf("err %v, halted %v", err, th.Halted)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunBlock over touched pages allocates %.0f objects, want 0", allocs)
	}
}
