package isa

import (
	"fmt"
	"math"
)

// Thread is the architectural state of one hardware thread, executed
// functionally and in order. It is used as the golden reference model
// in tests and as the "native execution" engine inside the replayer.
type Thread struct {
	Prog   Program
	PC     int
	Regs   [NumRegs]uint64
	Inputs []uint64 // external input stream consumed by IN
	InPos  int
	Halted bool

	// Instret counts retired instructions.
	Instret uint64
}

// SetReg writes a register, preserving the R0-is-zero invariant.
func (t *Thread) SetReg(r Reg, v uint64) {
	if r != 0 {
		t.Regs[r] = v
	}
}

// ErrOutOfInput is returned when IN runs past the input stream.
var ErrOutOfInput = fmt.Errorf("isa: IN executed past end of input stream")

// Step executes one instruction against mem. It returns an error on a
// PC out of range or input exhaustion; a halted thread is a no-op.
func (t *Thread) Step(mem *FlatMemory) error {
	_, err := t.RunBlock(mem, 1)
	return err
}

// Run steps the thread until it halts or maxSteps is exceeded.
func (t *Thread) Run(mem *FlatMemory, maxSteps uint64) error {
	for !t.Halted {
		if t.Instret >= maxSteps {
			return fmt.Errorf("isa: thread %q exceeded %d steps", t.Prog.Name, maxSteps)
		}
		n := min(maxSteps-t.Instret, math.MaxUint32)
		if _, err := t.RunBlock(mem, uint32(n)); err != nil {
			return err
		}
	}
	return nil
}

// RunBlock executes up to n instructions against mem, in program
// order, and returns how many retired. It stops early after HALT (which
// counts as retired) or at an instruction that fails: a PC out of range
// or IN past the end of the input stream. The failing instruction does
// not retire and leaves PC pointing at it. A halted thread runs
// nothing.
//
// This is the one copy of the ISA's architectural semantics: Step and
// Run are RunBlock with small and large n, and the replayer runs each
// InorderBlock as one call, the way the paper's OS module runs a block
// natively until the instruction-count interrupt.
//
//rrlint:hotpath
func (t *Thread) RunBlock(mem *FlatMemory, n uint32) (ran uint32, err error) {
	if t.Halted {
		return 0, nil
	}
	code := t.Prog.Code
	regs := t.Regs
	pc := t.PC
loop:
	for ran < n {
		if uint(pc) >= uint(len(code)) {
			err = errPCRange(pc, len(code))
			break
		}
		ins := &code[pc]
		next := pc + 1
		switch ins.Op {
		case NOP, FENCE:
			// No architectural effect in the in-order model.
		case ADD:
			regs[ins.Rd] = regs[ins.Rs1] + regs[ins.Rs2]
		case SUB:
			regs[ins.Rd] = regs[ins.Rs1] - regs[ins.Rs2]
		case MUL:
			regs[ins.Rd] = regs[ins.Rs1] * regs[ins.Rs2]
		case AND:
			regs[ins.Rd] = regs[ins.Rs1] & regs[ins.Rs2]
		case OR:
			regs[ins.Rd] = regs[ins.Rs1] | regs[ins.Rs2]
		case XOR:
			regs[ins.Rd] = regs[ins.Rs1] ^ regs[ins.Rs2]
		case SLL:
			regs[ins.Rd] = regs[ins.Rs1] << (regs[ins.Rs2] & 63)
		case SRL:
			regs[ins.Rd] = regs[ins.Rs1] >> (regs[ins.Rs2] & 63)
		case SLT:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs1]) < int64(regs[ins.Rs2]))
		case SLTU:
			regs[ins.Rd] = b2u(regs[ins.Rs1] < regs[ins.Rs2])
		case ADDI:
			regs[ins.Rd] = regs[ins.Rs1] + uint64(ins.Imm)
		case ANDI:
			regs[ins.Rd] = regs[ins.Rs1] & uint64(ins.Imm)
		case ORI:
			regs[ins.Rd] = regs[ins.Rs1] | uint64(ins.Imm)
		case XORI:
			regs[ins.Rd] = regs[ins.Rs1] ^ uint64(ins.Imm)
		case SLLI:
			regs[ins.Rd] = regs[ins.Rs1] << (uint64(ins.Imm) & 63)
		case SRLI:
			regs[ins.Rd] = regs[ins.Rs1] >> (uint64(ins.Imm) & 63)
		case SLTI:
			regs[ins.Rd] = b2u(int64(regs[ins.Rs1]) < ins.Imm)
		case LI:
			regs[ins.Rd] = uint64(ins.Imm)
		case LD:
			regs[ins.Rd] = mem.Load(regs[ins.Rs1] + uint64(ins.Imm))
		case ST:
			mem.Store(regs[ins.Rs1]+uint64(ins.Imm), regs[ins.Rs2])
		case AMOADD, AMOSWAP, CAS:
			addr := regs[ins.Rs1] + uint64(ins.Imm)
			old := mem.Load(addr)
			if newVal, write := AmoApply(*ins, old, regs[ins.Rs2], regs[ins.Rd]); write {
				mem.Store(addr, newVal)
			}
			regs[ins.Rd] = old
		case BEQ:
			if regs[ins.Rs1] == regs[ins.Rs2] {
				next = int(ins.Imm)
			}
		case BNE:
			if regs[ins.Rs1] != regs[ins.Rs2] {
				next = int(ins.Imm)
			}
		case BLT:
			if int64(regs[ins.Rs1]) < int64(regs[ins.Rs2]) {
				next = int(ins.Imm)
			}
		case BGE:
			if int64(regs[ins.Rs1]) >= int64(regs[ins.Rs2]) {
				next = int(ins.Imm)
			}
		case JMP:
			next = int(ins.Imm)
		case IN:
			if t.InPos >= len(t.Inputs) {
				err = ErrOutOfInput
				break loop
			}
			regs[ins.Rd] = t.Inputs[t.InPos]
			t.InPos++
		case HALT:
			t.Halted = true
			pc = next
			ran++
			break loop
		default:
			// Not an opcode: EvalALU panics with the instruction.
			regs[ins.Rd] = EvalALU(*ins, regs[ins.Rs1], regs[ins.Rs2])
		}
		regs[0] = 0 // R0 ignores writes
		pc = next
		ran++
	}
	t.PC = pc
	t.Regs = regs
	t.Instret += uint64(ran)
	return ran, err
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func errPCRange(pc, n int) error {
	return fmt.Errorf("isa: PC %d out of range [0,%d)", pc, n)
}

// FlatMemory is a word-granular memory of 512-byte pages held in a
// map, with the last page touched cached in front of it. The zero
// value is an empty memory ready to use. It is the reference memory for
// tests and the replayer.
//
// Pages stay small because the replayer stores to addresses and loads
// values that a log supplies, and a log may be hostile: each distinct
// page touched costs one 512-byte page plus its map entry, however far
// apart the addresses are. Loads never allocate, so reading untouched
// memory costs nothing.
type FlatMemory struct {
	pages   map[uint64]*memPage
	last    *memPage // nil until the first page is touched
	lastKey uint64   // page number of last
}

const (
	pageShift = 9 // 512-byte pages
	pageWords = (1 << pageShift) / WordSize
)

type memPage [pageWords]uint64

// NewFlatMemory returns an empty FlatMemory.
func NewFlatMemory() *FlatMemory { return &FlatMemory{} }

// Load returns the word at addr (zero if never written).
func (m *FlatMemory) Load(addr uint64) uint64 {
	if p := m.last; p != nil && addr>>pageShift == m.lastKey {
		return p[addr/WordSize%pageWords]
	}
	return m.loadSlow(addr)
}

func (m *FlatMemory) loadSlow(addr uint64) uint64 {
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	m.last, m.lastKey = p, addr>>pageShift
	return p[addr/WordSize%pageWords]
}

// Store writes the word at addr.
func (m *FlatMemory) Store(addr uint64, val uint64) {
	if p := m.last; p != nil && addr>>pageShift == m.lastKey {
		p[addr/WordSize%pageWords] = val
		return
	}
	m.storeSlow(addr, val)
}

func (m *FlatMemory) storeSlow(addr uint64, val uint64) {
	key := addr >> pageShift
	p := m.pages[key]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*memPage)
		}
		p = new(memPage)
		m.pages[key] = p
	}
	m.last, m.lastKey = p, key
	p[addr/WordSize%pageWords] = val
}

// Snapshot returns a copy of all non-zero words.
func (m *FlatMemory) Snapshot() map[uint64]uint64 {
	n := 0
	for _, p := range m.pages {
		for _, v := range p {
			if v != 0 {
				n++
			}
		}
	}
	out := make(map[uint64]uint64, n)
	for key, p := range m.pages {
		for i, v := range p {
			if v != 0 {
				out[key<<pageShift|uint64(i)*WordSize] = v
			}
		}
	}
	return out
}
