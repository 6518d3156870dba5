package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"relaxreplay/internal/isa"
)

// settledRef restates, independently of issueLoads, when the walk
// would cross an LSQ entry with no effect and no block.
func settledRef(c *Core, u *uop) bool {
	switch {
	case u.ins.Op == isa.FENCE:
		return !c.olderMemPending(u.seq)
	case u.ins.IsAtomic():
		return u.performed
	case u.ins.Op == isa.ST:
		return u.addrKnown
	}
	return u.state != uopWaiting &&
		(u.performed || c.cfg.Model == RC && u.ins.Flags&isa.FlagAcquire == 0)
}

// randomLSQProgram builds a loop over a random mix of plain and
// acquire loads, plain and release stores, stores whose address waits
// on a multiply, fences, atomics and branches that wait on a slow load
// and mispredict about half the time, all on a few shared words.
func randomLSQProgram(seed int64) isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder(fmt.Sprintf("lsq-random-%d", seed))
	base, iters, lcg, mul, late, bit := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(10), isa.R(11)
	b.Li(base, 0x1000)
	b.Li(iters, 60)
	b.Li(lcg, seed|1)
	b.Li(mul, 1103515245)
	b.Label("loop")
	b.Mul(lcg, lcg, mul)
	b.Addi(lcg, lcg, 12345)
	data := func() isa.Reg { return isa.R(5 + rng.Intn(5)) }
	for k := 0; k < 32; k++ {
		off := int64(rng.Intn(12)) * 8
		switch op := rng.Intn(20); {
		case op < 6:
			b.Ld(data(), base, off)
		case op < 7:
			b.LdAcq(data(), base, off)
		case op < 10:
			b.St(data(), base, off)
		case op < 11:
			b.StRel(data(), base, off)
		case op < 13: // the address is unknown until the multiply finishes
			b.Mul(late, lcg, mul)
			b.Andi(late, late, 0x58)
			b.Add(late, late, base)
			b.St(data(), late, 0)
		case op < 14:
			b.Fence()
		case op < 15:
			b.AmoAdd(data(), data(), base, off, 0)
		case op < 16:
			b.Cas(data(), data(), base, off, 0)
		case op < 18: // resolves only after the slow word's load
			skip := fmt.Sprintf("skip%d", k)
			b.Ld(bit, base, 8)
			b.Add(bit, bit, lcg)
			b.Srli(bit, bit, int64(8+rng.Intn(16)))
			b.Andi(bit, bit, 1)
			b.Beq(bit, isa.R(0), skip)
			b.Ld(data(), base, off)
			b.Ld(data(), base, off^8)
			b.Label(skip)
		default:
			r := data()
			b.Add(r, r, lcg)
		}
	}
	b.Addi(iters, iters, -1)
	b.Bne(iters, isa.R(0), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestLSQSettledPrefixInvariant runs random programs under every
// memory model and checks after every Tick that the cursor stays
// within the LSQ and that every entry below it is settled. The final
// registers and memory must match the sequential reference.
func TestLSQSettledPrefixInvariant(t *testing.T) {
	small := DefaultConfig()
	small.ROBSize, small.LSQSize, small.WBSize = 32, 12, 4
	for _, model := range []MemModel{RC, TSO, SC} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := DefaultConfig()
			if seed%2 == 0 {
				cfg = small
			}
			cfg.Model = model
			t.Run(fmt.Sprintf("%v/seed%d", model, seed), func(t *testing.T) {
				prog := randomLSQProgram(seed)
				mem := newFlatMem(uint64(3 + seed*5))
				mem.slowAddr, mem.slowLat = 0x1008, 60
				c := New(0, cfg, prog, mem, Hooks{Squash: mem.squash})
				maxSettled := 0
				for i := 0; !c.Quiesced(); i++ {
					if i > 2_000_000 {
						t.Fatalf("core never quiesced: %v", c)
					}
					mem.tick(c)
					if c.lsqSettled > len(c.lsq) {
						t.Fatalf("cycle %d: lsqSettled %d > len(lsq) %d", mem.cycle, c.lsqSettled, len(c.lsq))
					}
					for j := 0; j < c.lsqSettled; j++ {
						if u := &c.rob[c.lsq[j]]; !settledRef(c, u) {
							t.Fatalf("cycle %d: LSQ entry %d (seq %d, %v, state %d, performed %v) below the cursor %d is not settled",
								mem.cycle, j, u.seq, u.ins, u.state, u.performed, c.lsqSettled)
						}
					}
					maxSettled = max(maxSettled, c.lsqSettled)
				}
				if c.Err() != nil {
					t.Fatal(c.Err())
				}
				if maxSettled == 0 || c.Stats.SquashedUops == 0 || c.Stats.AtomicsRetired == 0 {
					t.Fatalf("weak run: max cursor %d, squashed %d, atomics %d",
						maxSettled, c.Stats.SquashedUops, c.Stats.AtomicsRetired)
				}
				ref := isa.NewFlatMemory()
				th := &isa.Thread{Prog: prog}
				if err := th.Run(ref, 10_000_000); err != nil {
					t.Fatal(err)
				}
				if got := c.ArchRegs(); got != th.Regs {
					t.Fatalf("registers diverge from the reference:\n got %v\nwant %v", got, th.Regs)
				}
				for a := uint64(0x1000); a < 0x1060; a += 8 {
					if *mem.word(a) != ref.Load(a) {
						t.Fatalf("mem[%#x] = %d, reference %d", a, *mem.word(a), ref.Load(a))
					}
				}
			})
		}
	}
}
