package cpu

import (
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
)

// magicMem is a MemPort that serves every request from a flat memory
// after a fixed delay, letting the pipeline be tested in isolation.
type magicMem struct {
	lat          uint64
	words        map[uint64]uint64
	pending      []pendingReq
	submits      []coherence.Request
	submitCycles []uint64
	reject       int // reject the next N submits (MSHR-full modeling)
	cycle        uint64
}

type pendingReq struct {
	due uint64
	req coherence.Request
}

func newMagicMem(lat uint64) *magicMem {
	return &magicMem{lat: lat, words: make(map[uint64]uint64)}
}

func (m *magicMem) Submit(r coherence.Request) bool {
	if m.reject > 0 {
		m.reject--
		return false
	}
	m.submits = append(m.submits, r)
	m.submitCycles = append(m.submitCycles, m.cycle)
	m.pending = append(m.pending, pendingReq{due: m.cycle + m.lat, req: r})
	return true
}

// tick advances one cycle and delivers due responses to the core.
func (m *magicMem) tick(c *Core) {
	m.cycle++
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.due > m.cycle {
			kept = append(kept, p)
			continue
		}
		r := p.req
		var value uint64
		switch r.Kind {
		case coherence.Load:
			value = m.words[r.Addr]
		case coherence.Store:
			m.words[r.Addr] = r.StoreVal
			value = r.StoreVal
		case coherence.RMW:
			old := m.words[r.Addr]
			if nv, w := isa.AmoApply(r.Instr, old, r.Rs2, r.Rd); w {
				m.words[r.Addr] = nv
			}
			value = old
		}
		ev := coherence.PerformEvent{
			Core: r.Core, ID: r.ID, Line: coherence.LineOf(r.Addr), Addr: r.Addr,
			IsWrite: r.Kind != coherence.Load, IsRead: r.Kind != coherence.Store,
			Value: value, Cycle: m.cycle,
		}
		c.HandlePerform(ev)
		c.HandleCompletion(coherence.Completion{Core: r.Core, ID: r.ID, Value: value, Cycle: m.cycle})
	}
	m.pending = kept
	c.Tick(m.cycle)
}

// run executes prog to completion on a single test core.
func run(t *testing.T, prog isa.Program, lat uint64, hooks Hooks) (*Core, *magicMem) {
	t.Helper()
	mem := newMagicMem(lat)
	c := New(0, DefaultConfig(), prog, mem, hooks)
	for i := 0; i < 200000; i++ {
		mem.tick(c)
		if c.Quiesced() {
			return c, mem
		}
	}
	t.Fatalf("core never quiesced: %v", c)
	return nil, nil
}

func TestPipelineBasicALU(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Li(isa.R(3), 6).Li(isa.R(4), 7).Mul(isa.R(5), isa.R(3), isa.R(4)).Halt()
	c, _ := run(t, b.MustBuild(), 3, Hooks{})
	if c.ArchRegs()[5] != 42 {
		t.Fatalf("r5 = %d", c.ArchRegs()[5])
	}
	if c.Stats.Retired != 4 {
		t.Fatalf("retired = %d", c.Stats.Retired)
	}
}

func TestLoadLatencyOverlap(t *testing.T) {
	// Two independent loads should overlap: total time well under 2x latency.
	b := isa.NewBuilder("mlp")
	b.Li(isa.R(10), 0x100)
	b.Ld(isa.R(3), isa.R(10), 0)
	b.Ld(isa.R(4), isa.R(10), 64)
	b.Halt()
	c, _ := run(t, b.MustBuild(), 50, Hooks{})
	if c.Stats.Cycles > 80 {
		t.Fatalf("loads did not overlap: %d cycles", c.Stats.Cycles)
	}
}

func TestStoreToLoadForwardingPriority(t *testing.T) {
	// Two stores to the same address; the load must forward from the
	// YOUNGEST older one.
	b := isa.NewBuilder("fwd2")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 1)
	b.St(isa.R(3), isa.R(10), 0)
	b.Li(isa.R(4), 2)
	b.St(isa.R(4), isa.R(10), 0)
	b.Ld(isa.R(5), isa.R(10), 0)
	b.Halt()
	c, _ := run(t, b.MustBuild(), 30, Hooks{})
	if c.ArchRegs()[5] != 2 {
		t.Fatalf("forwarded %d, want 2", c.ArchRegs()[5])
	}
	if c.Stats.Forwards == 0 {
		t.Fatal("expected forwarding")
	}
}

func TestWriteBufferDrainsSameAddressInOrder(t *testing.T) {
	b := isa.NewBuilder("waw")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 1)
	b.St(isa.R(3), isa.R(10), 0)
	b.Li(isa.R(4), 2)
	b.St(isa.R(4), isa.R(10), 0)
	b.Halt()
	_, mem := run(t, b.MustBuild(), 20, Hooks{})
	if mem.words[0x100] != 2 {
		t.Fatalf("final = %d, want 2 (program order)", mem.words[0x100])
	}
}

func TestFenceOrdersMemory(t *testing.T) {
	// Without the fence the load to an independent address could
	// perform before the store drains; with the fence it must not.
	b := isa.NewBuilder("fence")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 1)
	b.St(isa.R(3), isa.R(10), 0)
	b.Fence()
	b.Ld(isa.R(4), isa.R(10), 64)
	b.Halt()
	hooks := Hooks{}
	var order []uint64
	hooks.RetireInstr = func(seq uint64, isMem bool) {
		if isMem {
			order = append(order, seq)
		}
	}
	c, mem := run(t, b.MustBuild(), 20, hooks)
	_ = c
	// The load (last submit) must have been submitted after the store
	// completed (fence blocks it).
	if len(mem.submits) != 2 {
		t.Fatalf("submits = %d", len(mem.submits))
	}
	if mem.submits[0].Kind != coherence.Store || mem.submits[1].Kind != coherence.Load {
		t.Fatalf("submit order: %v then %v", mem.submits[0].Kind, mem.submits[1].Kind)
	}
}

func TestLoadBypassesStoreWithoutFence(t *testing.T) {
	b := isa.NewBuilder("nofence")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 1)
	b.St(isa.R(3), isa.R(10), 0)
	b.Ld(isa.R(4), isa.R(10), 64)
	b.Halt()
	c, mem := run(t, b.MustBuild(), 20, Hooks{})
	// The independent load is submitted BEFORE the store drains (the
	// store waits for retirement; the load issues immediately).
	if mem.submits[0].Kind != coherence.Load {
		t.Fatal("load did not bypass the buffered store")
	}
	if c.Stats.OOOLoads == 0 && c.Stats.OOOStores == 0 {
		t.Fatal("no out-of-order perform recorded")
	}
}

func TestSquashRestoresRenameState(t *testing.T) {
	// A data-dependent branch that alternates defeats the predictor;
	// register state must survive squashes.
	b := isa.NewBuilder("squash")
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), 32)
	b.Li(isa.R(5), 0)
	b.Label("loop")
	b.Andi(isa.R(6), isa.R(3), 1)
	b.Beq(isa.R(6), isa.R(0), "skip")
	b.Addi(isa.R(5), isa.R(5), 10)
	b.Label("skip")
	b.Addi(isa.R(5), isa.R(5), 1)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Bne(isa.R(3), isa.R(4), "loop")
	b.Halt()
	c, _ := run(t, b.MustBuild(), 5, Hooks{})
	if c.Stats.Mispredicts == 0 {
		t.Fatal("expected mispredicts")
	}
	if got := c.ArchRegs()[5]; got != 16*10+32 {
		t.Fatalf("r5 = %d, want %d", got, 16*10+32)
	}
}

func TestSquashHookAndWrongPathMemOps(t *testing.T) {
	var squashes int
	var dispatched, retired int
	hooks := Hooks{
		DispatchInstr: func(seq uint64, ins isa.Instr) bool { dispatched++; return true },
		RetireInstr:   func(seq uint64, isMem bool) { retired++ },
		Squash:        func(fromSeq uint64) { squashes++ },
	}
	b := isa.NewBuilder("wrongpath")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), 16)
	b.Label("loop")
	b.Andi(isa.R(6), isa.R(3), 1)
	b.Beq(isa.R(6), isa.R(0), "even")
	b.Ld(isa.R(7), isa.R(10), 0) // memory on one path only
	b.Label("even")
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Bne(isa.R(3), isa.R(4), "loop")
	b.Halt()
	c, _ := run(t, b.MustBuild(), 10, hooks)
	if squashes == 0 || c.Stats.SquashedUops == 0 {
		t.Fatal("expected squashes")
	}
	if dispatched <= retired {
		t.Fatalf("dispatched %d should exceed retired %d (wrong path)", dispatched, retired)
	}
	if uint64(retired) != c.Stats.Retired {
		t.Fatalf("retire hook count %d != stats %d", retired, c.Stats.Retired)
	}
}

func TestTRAQStallHook(t *testing.T) {
	// A hook that rejects dispatch for a while: the core must retry
	// and eventually finish.
	budget := 0
	hooks := Hooks{
		DispatchInstr: func(seq uint64, ins isa.Instr) bool {
			budget++
			return budget%3 != 0 // reject every third attempt
		},
	}
	b := isa.NewBuilder("stall")
	b.Li(isa.R(3), 5).Addi(isa.R(3), isa.R(3), 1).Halt()
	c, _ := run(t, b.MustBuild(), 5, hooks)
	if c.ArchRegs()[3] != 6 {
		t.Fatalf("r3 = %d", c.ArchRegs()[3])
	}
	if c.Stats.DispatchStallTRAQ == 0 {
		t.Fatal("expected TRAQ stalls")
	}
}

func TestMSHRRejectRetries(t *testing.T) {
	b := isa.NewBuilder("retry")
	b.Li(isa.R(10), 0x100)
	b.Ld(isa.R(3), isa.R(10), 0)
	b.Halt()
	mem := newMagicMem(5)
	mem.words[0x100] = 9
	mem.reject = 4
	c := New(0, DefaultConfig(), b.MustBuild(), mem, Hooks{})
	for i := 0; i < 10000 && !c.Quiesced(); i++ {
		mem.tick(c)
	}
	if c.ArchRegs()[3] != 9 {
		t.Fatalf("r3 = %d", c.ArchRegs()[3])
	}
}

func TestAtomicExecutesAtHeadNonSpeculatively(t *testing.T) {
	var submitsAtRetireGap int
	b := isa.NewBuilder("amo")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 5)
	b.AmoAdd(isa.R(4), isa.R(3), isa.R(10), 0, isa.FlagAcquire|isa.FlagRelease)
	b.Ld(isa.R(5), isa.R(10), 0)
	b.Halt()
	c, mem := run(t, b.MustBuild(), 10, Hooks{})
	_ = submitsAtRetireGap
	if c.ArchRegs()[4] != 0 || c.ArchRegs()[5] != 5 {
		t.Fatalf("r4=%d r5=%d", c.ArchRegs()[4], c.ArchRegs()[5])
	}
	// The RMW must be submitted before the younger load (full fence).
	if mem.submits[0].Kind != coherence.RMW {
		t.Fatalf("first submit = %v", mem.submits[0].Kind)
	}
}

func TestReleaseStoreWaitsForOlderStores(t *testing.T) {
	b := isa.NewBuilder("rel")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 1)
	b.St(isa.R(3), isa.R(10), 0) // plain
	b.Li(isa.R(4), 2)
	b.StRel(isa.R(4), isa.R(10), 64) // release: must drain after
	b.Halt()
	_, mem := run(t, b.MustBuild(), 25, Hooks{})
	if len(mem.submits) != 2 || mem.submits[0].Addr != 0x100 || mem.submits[1].Addr != 0x140 {
		t.Fatalf("submits = %+v", mem.submits)
	}
	// The release must be submitted only after the first performed:
	// with latency 25, submit cycle gap must exceed it.
	if gap := mem.pendingGap(); gap >= 0 && gap < 25 {
		t.Fatalf("release drained %d cycles after plain store; want >= latency", gap)
	}
}

// pendingGap is a helper recording the submit-cycle distance between
// the first two requests (approximated by due-time difference).
func (m *magicMem) pendingGap() int64 {
	if len(m.submitCycles) < 2 {
		return -1
	}
	return int64(m.submitCycles[1]) - int64(m.submitCycles[0])
}

func TestHaltedHookTrailingCount(t *testing.T) {
	var trailing int
	hooks := Hooks{Halted: func(n int) { trailing = n }}
	b := isa.NewBuilder("trail")
	b.Li(isa.R(10), 0x100)
	b.St(isa.R(10), isa.R(10), 0)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Halt()
	run(t, b.MustBuild(), 5, hooks)
	if trailing != 3 {
		t.Fatalf("trailing = %d, want 3 (2 addi + halt)", trailing)
	}
}

func TestLocalPerformHookOnForward(t *testing.T) {
	var forwarded []uint64
	hooks := Hooks{LocalPerform: func(seq uint64, addr, value uint64) {
		forwarded = append(forwarded, value)
	}}
	b := isa.NewBuilder("fwdhook")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 77)
	b.St(isa.R(3), isa.R(10), 0)
	b.Ld(isa.R(4), isa.R(10), 0)
	b.Halt()
	run(t, b.MustBuild(), 30, hooks)
	if len(forwarded) != 1 || forwarded[0] != 77 {
		t.Fatalf("forwarded = %v", forwarded)
	}
}

func TestStructuralStalls(t *testing.T) {
	// A tiny core must still execute correctly, accumulating stalls.
	cfg := DefaultConfig()
	cfg.ROBSize = 4
	cfg.LSQSize = 2
	cfg.WBSize = 1
	b := isa.NewBuilder("stalls")
	b.Li(isa.R(10), 0x100)
	for i := 0; i < 12; i++ {
		b.St(isa.R(10), isa.R(10), int64(i*8))
		b.Ld(isa.R(3), isa.R(10), int64(i*8))
	}
	b.Halt()
	mem := newMagicMem(10)
	c := New(0, cfg, b.MustBuild(), mem, Hooks{})
	for i := 0; i < 100000 && !c.Quiesced(); i++ {
		mem.tick(c)
	}
	if !c.Quiesced() {
		t.Fatal("never finished")
	}
	if c.Stats.DispatchStallROB == 0 && c.Stats.DispatchStallLSQ == 0 {
		t.Fatal("expected structural stalls on a tiny core")
	}
	if c.Stats.Retired != 26 {
		t.Fatalf("retired = %d", c.Stats.Retired)
	}
}

func TestWriteBufferFullStallsRetire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WBSize = 1
	b := isa.NewBuilder("wbfull")
	b.Li(isa.R(10), 0x100)
	for i := 0; i < 6; i++ {
		b.St(isa.R(10), isa.R(10), int64(i*64))
	}
	b.Halt()
	mem := newMagicMem(40) // slow stores keep the WB occupied
	c := New(0, cfg, b.MustBuild(), mem, Hooks{})
	for i := 0; i < 100000 && !c.Quiesced(); i++ {
		mem.tick(c)
	}
	if c.Stats.RetireStallWB == 0 {
		t.Fatal("expected write-buffer retire stalls")
	}
	for i := 0; i < 6; i++ {
		if mem.words[uint64(0x100+i*64)] != 0x100 {
			t.Fatalf("store %d lost", i)
		}
	}
}

func TestCASAtHead(t *testing.T) {
	b := isa.NewBuilder("cas")
	b.Li(isa.R(10), 0x100)
	b.Li(isa.R(3), 7) // expected (wrong)
	b.Li(isa.R(4), 9) // new
	b.Cas(isa.R(3), isa.R(4), isa.R(10), 0, isa.FlagAcquire)
	b.Mov(isa.R(5), isa.R(3)) // r5 = old value (0)
	b.Halt()
	mem := newMagicMem(5)
	c := New(0, DefaultConfig(), b.MustBuild(), mem, Hooks{})
	for i := 0; i < 100000 && !c.Quiesced(); i++ {
		mem.tick(c)
	}
	if c.ArchRegs()[5] != 0 {
		t.Fatalf("CAS old = %d", c.ArchRegs()[5])
	}
	if mem.words[0x100] != 0 {
		t.Fatalf("failed CAS wrote: %d", mem.words[0x100])
	}
}
