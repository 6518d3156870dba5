package cpu

import (
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
)

// flatMem is a fixed-latency MemPort that allocates nothing once warm:
// a flat word array and a preallocated pending queue. Requests to
// slowAddr take slowLat cycles; requests whose seq the core squashed
// while they were in flight are tagged so their late delivery can be
// checked.
type flatMem struct {
	lat, slowLat uint64
	slowAddr     uint64
	words        [1024]uint64
	pending      []flatReq
	cycle        uint64

	late         int  // late events delivered for squashed seqs
	lateWorked   int  // ... of which changed the core's state
	slowAccepted bool // a slowAddr perform changed the core's state
}

type flatReq struct {
	due      uint64
	req      coherence.Request
	squashed bool
}

func newFlatMem(lat uint64) *flatMem {
	return &flatMem{lat: lat, pending: make([]flatReq, 0, 512)}
}

func (m *flatMem) word(addr uint64) *uint64 { return &m.words[(addr>>3)%uint64(len(m.words))] }

func (m *flatMem) Submit(r coherence.Request) bool {
	due := m.cycle + m.lat
	if r.Addr == m.slowAddr {
		due = m.cycle + m.slowLat
	}
	m.pending = append(m.pending, flatReq{due: due, req: r})
	return true
}

// squash tags every in-flight request from fromSeq on (Hooks.Squash).
func (m *flatMem) squash(fromSeq uint64) {
	for i := range m.pending {
		if m.pending[i].req.ID >= fromSeq {
			m.pending[i].squashed = true
		}
	}
}

// tick advances one cycle, delivers due events, then ticks the core.
func (m *flatMem) tick(c *Core) {
	m.cycle++
	n := 0
	for _, p := range m.pending {
		if p.due > m.cycle {
			m.pending[n] = p
			n++
			continue
		}
		r := p.req
		w := m.word(r.Addr)
		value := *w
		switch r.Kind {
		case coherence.Store:
			*w, value = r.StoreVal, r.StoreVal
		case coherence.RMW:
			if nv, ok := r.Apply(value); ok {
				*w = nv
			}
		}
		before := c.WorkCount()
		c.HandlePerform(coherence.PerformEvent{Core: r.Core, ID: r.ID, Addr: r.Addr, Value: value, Cycle: m.cycle})
		c.HandleCompletion(coherence.Completion{Core: r.Core, ID: r.ID, Value: value, Cycle: m.cycle})
		worked := c.WorkCount() != before
		if p.squashed {
			m.late++
			if worked {
				m.lateWorked++
			}
		}
		if r.Addr == m.slowAddr && worked {
			m.slowAccepted = true
		}
	}
	m.pending = m.pending[:n]
	c.Tick(m.cycle)
}

// mispredictLoop builds a loop whose branch follows a pseudo-random
// bit (an LCG), so roughly half its instances mispredict, with loads,
// a forwarded load and ALU work around it. iters <= 0 loops forever;
// withStore adds a plain store and a load forwarding from it per
// iteration.
func mispredictLoop(iters int64, withStore bool) isa.Program {
	b := isa.NewBuilder("mispredict-loop")
	b.Li(isa.R(1), 0x1000)
	b.Li(isa.R(2), 1)
	b.StRel(isa.R(2), isa.R(1), 0)
	b.Li(isa.R(3), iters)
	b.Li(isa.R(4), 12345)
	b.Li(isa.R(5), 1103515245)
	b.Label("loop")
	b.Mul(isa.R(4), isa.R(4), isa.R(5))
	b.Addi(isa.R(4), isa.R(4), 12345)
	b.Srli(isa.R(6), isa.R(4), 17)
	b.Andi(isa.R(6), isa.R(6), 1)
	b.Ld(isa.R(7), isa.R(1), 64)
	b.Add(isa.R(10), isa.R(10), isa.R(7))
	b.Beq(isa.R(6), isa.R(0), "skip")
	b.Ld(isa.R(8), isa.R(1), 128) // wrong-path load on every mispredict to skip
	b.Add(isa.R(10), isa.R(10), isa.R(8))
	b.Ld(isa.R(9), isa.R(1), 0) // forwards from the release store
	b.Add(isa.R(10), isa.R(10), isa.R(9))
	b.Label("skip")
	if withStore {
		b.Andi(isa.R(11), isa.R(4), 0x78)
		b.Add(isa.R(11), isa.R(11), isa.R(1))
		b.St(isa.R(10), isa.R(11), 256)
		b.Ld(isa.R(12), isa.R(11), 256) // forwards from that store
	}
	b.Addi(isa.R(3), isa.R(3), -1)
	b.Bne(isa.R(3), isa.R(0), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestSeqWindowAcrossSquashesAndWriteBuffer pins the rule that a seq
// must be looked up, not mapped to a slot as seq % ROBSize: squashes
// leave gaps in the live seqs (nextSeq never rewinds, so late events
// for squashed seqs still miss), and a retired store stays addressable
// in the write buffer while far more than a ROB's worth of younger
// instructions retire.
func TestSeqWindowAcrossSquashesAndWriteBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	cfg.LSQSize = 8
	prog := mispredictLoop(300, false)

	mem := newFlatMem(20)
	mem.slowAddr, mem.slowLat = 0x1000, 1500
	*mem.word(0x1040), *mem.word(0x1080) = 7, 11

	// The release store is the third instruction dispatched, before
	// any branch, so its seq is 2.
	const storeSeq = 2
	var lastRetired uint64
	youngerRetired := 0
	hooks := Hooks{
		Squash: mem.squash,
		RetireInstr: func(seq uint64, isMem bool) {
			lastRetired = seq
			if seq > storeSeq {
				youngerRetired++
			}
		},
	}
	c := New(0, cfg, prog, mem, hooks)
	youngerAtPerform, distAtPerform := -1, uint64(0)
	for i := 0; i < 200000 && !c.Quiesced(); i++ {
		mem.tick(c)
		if mem.slowAccepted && youngerAtPerform < 0 {
			// This tick retired before draining the store.
			youngerAtPerform, distAtPerform = youngerRetired, lastRetired-storeSeq
		}
	}
	if !c.Quiesced() {
		t.Fatalf("core never quiesced: %v", c)
	}
	if c.Stats.Mispredicts < 50 || c.Stats.SquashedUops == 0 {
		t.Fatalf("mispredicts = %d, squashed uops = %d: the loop must squash often",
			c.Stats.Mispredicts, c.Stats.SquashedUops)
	}
	if mem.late == 0 {
		t.Fatal("no late event for a squashed seq was delivered")
	}
	if mem.lateWorked != 0 {
		t.Fatalf("%d of %d late events for squashed seqs changed the core", mem.lateWorked, mem.late)
	}
	if youngerAtPerform <= 2*cfg.ROBSize || distAtPerform <= 2*uint64(cfg.ROBSize) {
		t.Fatalf("release store perform accepted after %d younger retirements (seq distance %d); want > %d",
			youngerAtPerform, distAtPerform, 2*cfg.ROBSize)
	}

	ref := isa.NewFlatMemory()
	ref.Store(0x1040, 7)
	ref.Store(0x1080, 11)
	th := &isa.Thread{Prog: prog}
	if err := th.Run(ref, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.ArchRegs(); got != th.Regs {
		t.Fatalf("registers diverge from the reference:\n got %v\nwant %v", got, th.Regs)
	}
	for _, a := range []uint64{0x1000, 0x1040, 0x1080} {
		if *mem.word(a) != ref.Load(a) {
			t.Fatalf("mem[%#x] = %d, reference %d", a, *mem.word(a), ref.Load(a))
		}
	}
}

// TestTickAllocatesNothing is the allocation gate of the ROB ring: in
// steady state a Tick over ALU work, loads, stores, forwarding and
// mispredict squashes must not touch the heap.
func TestTickAllocatesNothing(t *testing.T) {
	mem := newFlatMem(12)
	c := New(0, DefaultConfig(), mispredictLoop(0, true), mem, Hooks{})
	for i := 0; i < 5000; i++ {
		mem.tick(c)
	}
	before := c.Stats
	// One run of 2000 ticks: AllocsPerRun divides in integers, so a run
	// per tick would hide anything under one allocation per cycle.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			mem.tick(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("2000 steady-state ticks allocate %.0f objects, want 0", allocs)
	}
	d := c.Stats.Sub(before)
	if d.Mispredicts == 0 || d.LoadsRetired == 0 || d.StoresRetired == 0 || d.Forwards == 0 {
		t.Fatalf("measured window missed part of the mix: %+v", d)
	}
}
