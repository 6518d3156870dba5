package cpu

import (
	"fmt"
	"math/bits"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
)

// Core is one simulated out-of-order core.
type Core struct {
	id    int
	cfg   Config
	prog  isa.Program
	mem   MemPort
	hooks Hooks

	cycle   uint64
	pc      int
	nextSeq uint64

	fetchStallUntil uint64
	haltSeq         int64 // seq of a dispatched HALT, -1 when none
	halted          bool
	err             error

	archRegs [isa.NumRegs]uint64
	// regOwner is the ROB position of each register's youngest
	// in-flight writer, noPos when the architectural value is current.
	regOwner [isa.NumRegs]int32

	// rob is the reorder buffer: a ring of uop values holding robLen
	// uops from position robHead on, seq-ascending. The queues below
	// hold ROB positions (see DESIGN.md §20).
	rob              []uop
	robHead, robMask int32
	robLen           int

	lsq       []int32 // memory ops and fences, program order
	lsqBuf    []int32 // lsq's backing array, twice its capacity
	wb        []wbEntry
	readyALU  []int32 // seq-ascending
	executing []int32
	// work counts state changes; see WorkCount.
	work uint64

	predictor []uint8

	inputs []uint64
	inPos  int

	nonMemSinceMemRetire int

	tel   coreTelem
	Stats Stats
}

// noPos marks an empty register owner; noLink ends a waiter chain.
const noPos, noLink int32 = -1, -1

// New builds a core executing prog against mem. Initial register state
// can be set with SetReg before the first Tick. Every in-flight
// structure is allocated here, once: the pipeline never allocates.
func New(id int, cfg Config, prog isa.Program, mem MemPort, hooks Hooks) *Core {
	ring := 1 << bits.Len(uint(max(cfg.ROBSize, 1)-1))
	c := &Core{
		id:        id,
		cfg:       cfg,
		prog:      prog,
		mem:       mem,
		hooks:     hooks,
		haltSeq:   -1,
		rob:       make([]uop, ring),
		robMask:   int32(ring - 1),
		lsqBuf:    make([]int32, 0, 2*max(min(cfg.LSQSize, cfg.ROBSize), 1)),
		wb:        make([]wbEntry, 0, max(cfg.WBSize, 0)),
		readyALU:  make([]int32, 0, ring),
		executing: make([]int32, 0, ring),
		predictor: make([]uint8, 1<<cfg.PredictorBits),
		tel:       newCoreTelem(cfg.Telemetry),
	}
	c.lsq = c.lsqBuf
	for r := range c.regOwner {
		c.regOwner[r] = noPos
	}
	for i := range c.predictor {
		c.predictor[i] = 2 // weakly taken
	}
	return c
}

// SetReg initializes an architectural register (e.g. the thread id).
func (c *Core) SetReg(r isa.Reg, v uint64) {
	if r != 0 {
		c.archRegs[r] = v
	}
}

// SetInputs provides the external input stream consumed by IN.
func (c *Core) SetInputs(in []uint64) { c.inputs = in }

// Halted reports whether the core has retired HALT.
func (c *Core) Halted() bool { return c.halted }

// Err returns the execution error, if any (e.g. input exhaustion).
func (c *Core) Err() error { return c.err }

// Quiesced reports whether the core has no in-flight work left.
func (c *Core) Quiesced() bool {
	return c.halted && c.robLen == 0 && len(c.wb) == 0
}

// ArchRegs returns the architectural register file (valid once halted).
func (c *Core) ArchRegs() [isa.NumRegs]uint64 { return c.archRegs }

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// at returns the ROB position of the i-th oldest in-flight uop.
func (c *Core) at(i int) int32 { return (c.robHead + int32(i)) & c.robMask }

// inROB reports whether position p holds an in-flight uop.
func (c *Core) inROB(p int32) bool { return int((p-c.robHead)&c.robMask) < c.robLen }

// find returns the ROB position of the in-flight uop with the given
// seq, or noPos. Seqs ascend from the head but skip squashed ranges:
// the direct index seq-headSeq is a guess validated by the slot's seq,
// and a binary search below it settles the rest.
//
//rrlint:hotpath
func (c *Core) find(seq uint64) int32 {
	lo, hi := 0, c.robLen
	if hi == 0 || seq < c.rob[c.robHead].seq {
		return noPos
	}
	if d := seq - c.rob[c.robHead].seq; d < uint64(hi) {
		hi = int(d) // squash gaps only push seqs further from the head
		if p := c.at(hi); c.rob[p].seq == seq {
			return p
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rob[c.at(mid)].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if p := c.at(lo); lo < c.robLen && c.rob[p].seq == seq {
		return p
	}
	return noPos
}

// HandlePerform delivers a memory-system perform event: the access
// bound its value this cycle. It may be called synchronously from
// inside a Submit, so it must not mutate the pipeline queues; a
// performed write-buffer store is swept out by drainWB.
//
//rrlint:shardphase
func (c *Core) HandlePerform(ev coherence.PerformEvent) {
	if p := c.find(ev.ID); p != noPos {
		c.markPerformed(p)
		return
	}
	// Otherwise a retired store, whose Figure 1 accounting happens
	// here (loads count at retirement: wrong-path loads must not), or a
	// squashed wrong-path access.
	for i := range c.wb {
		if e := &c.wb[i]; e.seq == ev.ID && !e.performed {
			c.work++
			e.performed = true
			if c.olderMemPending(e.seq) {
				c.Stats.OOOStores++
			}
		}
	}
}

// HandleCompletion delivers the pipeline notification for a load, RMW
// or store submitted to the memory system. Squashed seqs and stores
// (already retired to the write buffer) miss the ROB.
//
//rrlint:shardphase
func (c *Core) HandleCompletion(ev coherence.Completion) {
	if p := c.find(ev.ID); p != noPos && c.rob[p].state != uopDone {
		c.finish(p, ev.Value)
	}
}

// markPerformed records the perform event and whether it was out of
// program order (an older memory op still pending), for Figure 1.
//
//rrlint:hotpath
func (c *Core) markPerformed(p int32) {
	u := &c.rob[p]
	if u.performed {
		return
	}
	c.work++
	u.performed = true
	u.oooPerform = c.olderMemPending(u.seq)
}

// olderMemPending reports whether any memory op older than seq has not
// performed yet.
func (c *Core) olderMemPending(seq uint64) bool {
	for _, e := range c.wb {
		if e.seq < seq && !e.performed {
			return true
		}
	}
	for _, p := range c.lsq {
		u := &c.rob[p]
		if u.seq >= seq {
			break
		}
		if u.ins.IsMem() && !u.performed {
			return true
		}
	}
	return false
}

// finish completes a uop's execution: the result is available and
// the sources waiting on it, linked through the waiter chain, wake.
//
//rrlint:hotpath
func (c *Core) finish(p int32, val uint64) {
	c.work++
	u := &c.rob[p]
	u.val = val
	u.state = uopDone
	for l := u.waitHead; l != noLink; {
		wp, s := l>>2, l&3
		w := &c.rob[wp]
		l = w.srcNext[s]
		w.srcVal[s] = val
		w.srcWait &^= 1 << s
		if w.srcWait == 0 && w.state == uopWaiting && wantsALUQueue(w.ins.Op) {
			c.pushReady(wp)
		}
	}
	u.waitHead = noLink
}

// wantsALUQueue reports whether the op issues through the ALU ready
// queue (memory ops, fences, IN and RMW are handled elsewhere).
func wantsALUQueue(op isa.Op) bool {
	switch op {
	case isa.LD, isa.FENCE, isa.IN, isa.AMOADD, isa.AMOSWAP, isa.CAS, isa.HALT, isa.NOP, isa.JMP:
		return false
	}
	return true
}

//rrlint:hotpath
func (c *Core) pushReady(p int32) {
	c.work++
	c.rob[p].state = uopReady
	seq := c.rob[p].seq
	// Open-coded binary search: sort.Search's closure would allocate
	// its environment on this per-wakeup path.
	lo, hi := 0, len(c.readyALU)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rob[c.readyALU[mid]].seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.readyALU = append(c.readyALU, 0)
	copy(c.readyALU[lo+1:], c.readyALU[lo:])
	c.readyALU[lo] = p
}

// Tick advances the core one cycle. The machine must deliver this
// cycle's perform and completion events before calling Tick. Under the
// sharded run loop Tick runs on a shard worker, so everything it
// reaches must be core-local or a coherence staging handoff.
//
//rrlint:shardphase
func (c *Core) Tick(cycle uint64) {
	c.cycle = cycle
	if c.err != nil || c.Quiesced() {
		return
	}
	c.Stats.Cycles++
	c.tel.cycles.Inc(c.id)
	c.tel.robOcc.Observe(c.id, uint64(c.robLen))
	c.tel.lsqOcc.Observe(c.id, uint64(len(c.lsq)))
	c.completeExecuting()
	c.retire()
	c.issueMem()
	c.issueALU()
	c.dispatch()
}

// completeExecuting finishes ALU-class uops whose latency elapsed. A
// branch may squash younger uops later in the walk (skipped) or already
// kept (dropped after it); nothing dispatches during the walk, so a
// position outside the ROB cannot have been reused.
//
//rrlint:hotpath
func (c *Core) completeExecuting() {
	n := 0
	for _, p := range c.executing {
		switch {
		case !c.inROB(p):
		case c.rob[p].doneAt > c.cycle:
			c.executing[n] = p
			n++
		default:
			c.execute(p)
		}
	}
	kept := c.executing[:n]
	c.executing = c.executing[:0]
	for _, p := range kept {
		if c.inROB(p) {
			c.executing = append(c.executing, p)
		}
	}
}

// execute applies the architectural semantics of an ALU-class uop.
func (c *Core) execute(p int32) {
	u := &c.rob[p]
	ins := u.ins
	switch {
	case ins.Op == isa.IN || u.forwarded:
		c.finish(p, u.val) // value already bound
	case ins.IsBranch():
		taken := isa.BranchTaken(ins, u.srcVal[0], u.srcVal[1])
		c.trainPredictor(u.pc, taken)
		c.finish(p, 0)
		if taken != u.predictedTaken {
			c.Stats.Mispredicts++
			c.tel.mispredict.Inc(c.id)
			c.mispredict(p, taken)
		}
	case ins.Op == isa.ST:
		u.addr = isa.EffAddr(ins, u.srcVal[0])
		u.addrKnown = true
		c.finish(p, u.srcVal[1]) // val holds the store data
	default:
		c.finish(p, isa.EvalALU(ins, u.srcVal[0], u.srcVal[1]))
	}
}

// mispredict squashes the wrong path and redirects fetch.
func (c *Core) mispredict(p int32, taken bool) {
	u := &c.rob[p]
	c.squashAfter(u.seq)
	if taken {
		c.pc = int(u.ins.Imm)
	} else {
		c.pc = u.pc + 1
	}
	c.fetchStallUntil = c.cycle + c.cfg.MispredictPenalty
}

// squashAfter removes every uop with seq > after from the pipeline.
// The squashed uops are a seq suffix of the ROB, the LSQ and the ready
// queue; completeExecuting, the only caller, drops them from
// executing. Waiter chains are appended in dispatch order, so each
// survivor's chain loses a suffix too, cut while the rename table is
// rebuilt.
func (c *Core) squashAfter(after uint64) {
	c.work++
	cut := c.robLen
	for cut > 0 && c.rob[c.at(cut-1)].seq > after {
		c.Stats.SquashedUops++
		c.tel.squashed.Inc(c.id)
		cut--
	}
	if cut == c.robLen {
		return
	}
	c.robLen = cut
	for len(c.lsq) > 0 && c.rob[c.lsq[len(c.lsq)-1]].seq > after {
		c.lsq = c.lsq[:len(c.lsq)-1]
	}
	for len(c.readyALU) > 0 && c.rob[c.readyALU[len(c.readyALU)-1]].seq > after {
		c.readyALU = c.readyALU[:len(c.readyALU)-1]
	}

	for r := range c.regOwner {
		c.regOwner[r] = noPos
	}
	for i := 0; i < c.robLen; i++ {
		p := c.at(i)
		u := &c.rob[p]
		if u.ins.WritesReg() {
			c.regOwner[u.ins.Rd] = p
		}
		link := &u.waitHead
		for *link != noLink && c.rob[*link>>2].seq <= after {
			u.waitTail = *link
			link = &c.rob[*link>>2].srcNext[*link&3]
		}
		*link = noLink
	}
	if c.haltSeq > int64(after) {
		c.haltSeq = -1
	}
	if c.hooks.Squash != nil {
		c.hooks.Squash(after + 1)
	}
}

func (c *Core) predictorIdx(pc int) int { return pc & (len(c.predictor) - 1) }

func (c *Core) predictTaken(pc int) bool { return c.predictor[c.predictorIdx(pc)] >= 2 }

func (c *Core) trainPredictor(pc int, taken bool) {
	i := c.predictorIdx(pc)
	if taken {
		if c.predictor[i] < 3 {
			c.predictor[i]++
		}
	} else if c.predictor[i] > 0 {
		c.predictor[i]--
	}
}

// retire commits up to IssueWidth instructions in program order. A
// retiring store is copied into the write buffer: every ROB slot frees
// at retirement.
func (c *Core) retire() {
	for n := 0; n < c.cfg.IssueWidth && c.robLen > 0; n++ {
		p := c.robHead
		u := &c.rob[p]
		switch {
		case u.ins.Op == isa.ST:
			if u.state != uopDone {
				return
			}
			if len(c.wb) >= c.cfg.WBSize {
				c.Stats.RetireStallWB++
				c.tel.stallWB.Inc(c.id)
				return
			}
			c.wb = append(c.wb, wbEntry{
				seq: u.seq, addr: u.addr, val: u.val, release: u.ins.Flags&isa.FlagRelease != 0,
			})
		case u.ins.IsMem(): // loads, atomics
			if u.state != uopDone || !u.performed {
				return
			}
		case u.ins.Op == isa.FENCE:
			if c.olderMemPending(u.seq) {
				return
			}
		case u.ins.Op == isa.HALT:
			c.halted = true
		default:
			if u.state != uopDone {
				return
			}
		}

		c.work++
		if u.ins.WritesReg() {
			c.archRegs[u.ins.Rd] = u.val
			if c.regOwner[u.ins.Rd] == p {
				c.regOwner[u.ins.Rd] = noPos
			}
		}
		// The slot frees; its contents stay readable until dispatch.
		c.robHead = (c.robHead + 1) & c.robMask
		c.robLen--
		if len(c.lsq) > 0 && c.lsq[0] == p {
			c.lsq = c.lsq[1:]
		}

		c.Stats.Retired++
		c.tel.retired.Inc(c.id)
		if c.hooks.RetireInstr != nil {
			c.hooks.RetireInstr(u.seq, u.ins.IsMem())
		}
		if u.ins.IsMem() {
			c.Stats.MemRetired++
			c.tel.memRetired.Inc(c.id)
			c.nonMemSinceMemRetire = 0
			switch {
			case u.ins.IsAtomic():
				c.Stats.AtomicsRetired++
			case u.ins.Op == isa.LD:
				c.Stats.LoadsRetired++
			default:
				c.Stats.StoresRetired++
			}
			if u.oooPerform && u.ins.Op == isa.LD {
				c.Stats.OOOLoads++
			}
		} else {
			c.nonMemSinceMemRetire++
			if u.ins.IsBranch() {
				c.Stats.BranchesRetired++
			}
		}
		if c.halted {
			if c.hooks.Halted != nil {
				c.hooks.Halted(c.nonMemSinceMemRetire)
			}
			return
		}
	}
}

// issueMem issues loads, drains the write buffer, and launches
// non-speculative head operations (RMW, IN), sharing the load/store
// unit bandwidth.
func (c *Core) issueMem() {
	budget := c.cfg.LdStUnits
	c.issueHeadOps(&budget)
	c.issueLoads(&budget)
	c.drainWB(&budget)
}

// issueHeadOps launches RMW and IN at the ROB head.
func (c *Core) issueHeadOps(budget *int) {
	if c.robLen == 0 || *budget == 0 {
		return
	}
	p := c.robHead
	u := &c.rob[p]
	switch {
	case u.ins.IsAtomic() && u.state == uopWaiting && u.srcWait == 0:
		// Atomics act as a full fence: wait for the write buffer.
		if len(c.wb) > 0 {
			return
		}
		u.addr = isa.EffAddr(u.ins, u.srcVal[0])
		u.addrKnown = true
		ins, rs2, rd := u.ins, u.srcVal[1], u.srcVal[2]
		ok := c.mem.Submit(coherence.Request{
			Core: c.id, ID: u.seq, Addr: u.addr, Kind: coherence.RMW,
			Apply: func(old uint64) (uint64, bool) { return isa.AmoApply(ins, old, rs2, rd) },
		})
		if ok {
			c.work++
			u.state = uopIssued
			c.tel.issuedMem.Inc(c.id)
			*budget--
		}
	case u.ins.Op == isa.IN && u.state == uopWaiting:
		c.work++
		if c.inPos >= len(c.inputs) {
			c.err = isa.ErrOutOfInput
			return
		}
		v := c.inputs[c.inPos]
		c.inPos++
		u.state = uopIssued
		u.doneAt = c.cycle + 1
		u.val = v
		c.executing = append(c.executing, p)
	}
}

// issueLoads walks the LSQ in program order issuing ready loads,
// enforcing the RC ordering rules.
func (c *Core) issueLoads(budget *int) {
	storeAddrUnknown := false
	for _, p := range c.lsq {
		if *budget == 0 {
			return
		}
		u := &c.rob[p]
		ins := u.ins
		switch {
		case ins.Op == isa.FENCE:
			if c.olderMemPending(u.seq) {
				return // blocks all younger memory ops
			}
			continue
		case ins.IsAtomic():
			if !u.performed {
				return // full-fence semantics
			}
			continue
		case ins.Op == isa.ST:
			// Opportunistic address generation so younger loads can
			// disambiguate without waiting for the store data.
			if !u.addrKnown && u.srcWait&1 == 0 {
				c.work++
				u.addr = isa.EffAddr(ins, u.srcVal[0])
				u.addrKnown = true
			}
			if !u.addrKnown {
				storeAddrUnknown = true
			}
			continue
		}
		// Load.
		acquire := ins.Flags&isa.FlagAcquire != 0
		if u.state == uopWaiting && !u.performed {
			c.tryIssueLoad(p, storeAddrUnknown, budget)
		}
		if acquire && !u.performed {
			return // acquire blocks all younger memory ops
		}
		if c.cfg.Model != RC && !u.performed {
			// TSO and SC bind loads in program order: nothing younger
			// may issue past an unperformed load.
			return
		}
	}
}

// tryIssueLoad attempts to bind or launch one waiting load.
func (c *Core) tryIssueLoad(p int32, storeAddrUnknown bool, budget *int) {
	u := &c.rob[p]
	if u.srcWait&1 != 0 {
		return // address operand not ready
	}
	if !u.addrKnown {
		c.work++
		u.addr = isa.EffAddr(u.ins, u.srcVal[0])
		u.addrKnown = true
	}
	if storeAddrUnknown {
		return // conservative: an older store address is unknown
	}
	if c.cfg.Model == SC && c.olderMemPending(u.seq) {
		return // SC: in-order perform of every memory operation
	}
	val, found, blocked := c.forwardSource(u.seq, u.addr)
	if blocked {
		return
	}
	if found {
		// Store-to-load forwarding from the write buffer or an
		// unretired older store.
		c.Stats.Forwards++
		c.tel.forwards.Inc(c.id)
		u.forwarded = true
		c.markPerformed(p)
		u.state = uopIssued
		u.doneAt = c.cycle + 1
		u.val = val
		c.executing = append(c.executing, p)
		if c.hooks.LocalPerform != nil {
			c.hooks.LocalPerform(u.seq, u.addr, val)
		}
		*budget--
		return
	}
	if !c.mem.Submit(coherence.Request{Core: c.id, ID: u.seq, Addr: u.addr, Kind: coherence.Load}) {
		*budget = 0 // MSHRs full; retry next cycle
		return
	}
	c.work++
	u.state = uopIssued
	c.tel.issuedMem.Inc(c.id)
	*budget--
}

// forwardSource finds the youngest older store to the load's address.
// It returns (value, true, false) to forward, (0, false, true) if the
// load must wait (matching store's data not ready, or an older
// same-address load is still pending), and (0, false, false) to access
// memory.
func (c *Core) forwardSource(seq, addr uint64) (val uint64, found, blocked bool) {
	// Unretired stores and older loads, youngest first.
	for i := len(c.lsq) - 1; i >= 0; i-- {
		u := &c.rob[c.lsq[i]]
		if u.seq >= seq {
			continue
		}
		switch u.ins.Op {
		case isa.ST:
			if !u.addrKnown || u.addr != addr {
				continue
			}
			if u.srcWait&2 == 0 {
				return u.srcVal[1], true, false // data ready: forward
			}
			return 0, false, true // same-address store, data pending
		case isa.LD:
			if u.addrKnown && u.addr == addr && !u.performed {
				return 0, false, true // same-address load order (coherence)
			}
		}
	}
	// Write buffer, youngest first.
	for i := len(c.wb) - 1; i >= 0; i-- {
		if e := &c.wb[i]; e.seq < seq && e.addr == addr {
			return e.val, true, false
		}
	}
	return 0, false, false
}

// drainWB issues retired stores to memory. RC lets them complete out
// of order; release stores wait until they are the only unperformed
// memory operation.
func (c *Core) drainWB(budget *int) {
	// Sweep out stores whose perform event arrived.
	kept := c.wb[:0]
	for _, e := range c.wb {
		if e.performed {
			c.work++
			continue
		}
		kept = append(kept, e)
	}
	c.wb = kept

	for i := range c.wb {
		e := &c.wb[i]
		if *budget == 0 {
			return
		}
		if e.issued {
			continue
		}
		if c.cfg.Model != RC && i != 0 {
			// TSO/SC: the store buffer drains strictly FIFO, one
			// outstanding store at a time.
			return
		}
		if e.release && i != 0 {
			// All older stores must have performed (older loads have:
			// they retired before this store did).
			return
		}
		if c.cfg.Model == SC && c.olderMemPending(e.seq) {
			return // SC: no store-load reordering either
		}
		// Same-address stores perform in program order.
		blocked := false
		for j := 0; j < i; j++ {
			if c.wb[j].addr == e.addr && !c.wb[j].performed {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		if !c.mem.Submit(coherence.Request{
			Core: c.id, ID: e.seq, Addr: e.addr, Kind: coherence.Store, StoreVal: e.val,
		}) {
			return
		}
		c.work++
		e.issued = true
		c.tel.issuedMem.Inc(c.id)
		*budget--
	}
}

// issueALU starts execution of ready ALU-class uops. The consumed
// prefix is shifted out rather than re-sliced away, so the queue keeps
// its backing array.
//
//rrlint:hotpath
func (c *Core) issueALU() {
	n := min(len(c.readyALU), c.cfg.IssueWidth)
	for _, p := range c.readyALU[:n] {
		c.work++
		u := &c.rob[p]
		lat := c.cfg.ALULat
		if u.ins.Op == isa.MUL {
			lat = c.cfg.MulLat
		}
		u.state = uopIssued
		u.doneAt = c.cycle + lat
		c.executing = append(c.executing, p)
		c.tel.issuedALU.Inc(c.id)
	}
	c.readyALU = c.readyALU[:copy(c.readyALU, c.readyALU[n:])]
}

// dispatch brings up to IssueWidth instructions into the ROB along the
// predicted path.
func (c *Core) dispatch() {
	if c.halted || c.haltSeq >= 0 || c.cycle < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.pc < 0 || c.pc >= len(c.prog.Code) {
			return // off the end: wrong path, wait for squash
		}
		if c.robLen >= c.cfg.ROBSize {
			c.Stats.DispatchStallROB++
			c.tel.stallROB.Inc(c.id)
			return
		}
		ins := c.prog.Code[c.pc]
		if (ins.IsMem() || ins.Op == isa.FENCE) && len(c.lsq) >= c.cfg.LSQSize {
			c.Stats.DispatchStallLSQ++
			c.tel.stallLSQ.Inc(c.id)
			return
		}
		seq := c.nextSeq
		if c.hooks.DispatchInstr != nil && !c.hooks.DispatchInstr(seq, ins) {
			c.Stats.DispatchStallTRAQ++
			c.tel.stallTRAQ.Inc(c.id)
			return
		}
		c.nextSeq++
		c.work++
		p := c.at(c.robLen)
		c.robLen++
		u := &c.rob[p]
		*u = uop{} // zeroed in place: a literal would be built and copied
		u.seq, u.pc, u.ins, u.waitHead = seq, c.pc, ins, noLink
		c.captureSources(p)
		if ins.WritesReg() {
			c.regOwner[ins.Rd] = p
		}

		switch {
		case ins.Op == isa.NOP:
			u.state = uopDone
			c.pc++
		case ins.Op == isa.JMP:
			u.state = uopDone
			c.pc = int(ins.Imm)
		case ins.Op == isa.HALT:
			u.state = uopDone
			c.haltSeq = int64(seq)
			return
		case ins.IsBranch():
			u.predictedTaken = c.predictTaken(c.pc)
			if u.predictedTaken {
				c.pc = int(ins.Imm)
			} else {
				c.pc++
			}
			if u.srcWait == 0 {
				c.pushReady(p)
			}
		case ins.IsMem() || ins.Op == isa.FENCE:
			if len(c.lsq) == cap(c.lsq) {
				// Slide the queue back to the start of its backing
				// array, which holds twice the LSQ: amortised O(1).
				c.lsq = append(c.lsqBuf[:0], c.lsq...)
			}
			c.lsq = append(c.lsq, p)
			if ins.Op == isa.LD && u.srcWait == 0 {
				u.addr = isa.EffAddr(ins, u.srcVal[0])
				u.addrKnown = true
			}
			if ins.Op == isa.ST && u.srcWait == 0 {
				c.pushReady(p)
			}
			c.pc++
		case ins.Op == isa.IN:
			c.pc++
		default: // ALU
			if u.srcWait == 0 {
				c.pushReady(p)
			}
			c.pc++
		}
	}
}

// captureSources resolves or subscribes to the uop's register sources.
// The per-operand work lives in captureSource, a method rather than a
// closure: the closure environment was the record path's second-largest
// heap contributor.
//
//rrlint:hotpath
func (c *Core) captureSources(p int32) {
	ins := c.rob[p].ins
	if ins.ReadsRs1() {
		c.captureSource(p, 0, ins.Rs1)
	}
	if ins.ReadsRs2() {
		c.captureSource(p, 1, ins.Rs2)
	}
	if ins.ReadsRd() {
		c.captureSource(p, 2, ins.Rd)
	}
}

// captureSource reads source s from the register file or a finished
// owner, or else links it (p<<2|s) onto the tail of the owner's chain.
//
//rrlint:hotpath
func (c *Core) captureSource(p, s int32, r isa.Reg) {
	u := &c.rob[p]
	owner := c.regOwner[r]
	switch {
	case r == 0 || owner == noPos:
		u.srcVal[s] = c.archRegs[r]
	case c.rob[owner].state == uopDone:
		u.srcVal[s] = c.rob[owner].val
	default:
		o := &c.rob[owner]
		link := p<<2 | s
		if o.waitHead == noLink {
			o.waitHead = link
		} else {
			c.rob[o.waitTail>>2].srcNext[o.waitTail&3] = link
		}
		o.waitTail = link
		u.srcNext[s] = noLink
		u.srcWait |= 1 << s
	}
}

// Occupancy returns the current ROB, LSQ and write-buffer occupancy,
// for the machine's cycle-sampled telemetry tracks.
func (c *Core) Occupancy() (rob, lsq, wb int) {
	return c.robLen, len(c.lsq), len(c.wb)
}

// WorkCount returns a monotonically increasing count of pipeline state
// changes (dispatches, wakeups, issues, completions, retires, squash
// and write-buffer activity). Two equal readings bracketing a Tick
// prove the tick changed nothing but per-cycle statistics — the
// machine's idle-cycle fast-forward builds on exactly that guarantee,
// so every Core mutation site must bump the counter.
func (c *Core) WorkCount() uint64 { return c.work }

// NextWake returns the earliest future cycle at which this core can
// make progress with no external stimulus: the earliest in-flight
// completion, or the end of a mispredict fetch stall. ok is false when
// no time-based wakeup exists (the core is quiesced, faulted, or
// waiting solely on the memory system). Only meaningful right after a
// zero-work tick; extra early wakeups are harmless, missed ones are
// not.
func (c *Core) NextWake() (cycle uint64, ok bool) {
	if c.err != nil || c.Quiesced() {
		return 0, false
	}
	for _, p := range c.executing {
		if d := c.rob[p].doneAt; !ok || d < cycle {
			cycle, ok = d, true
		}
	}
	if !c.halted && c.haltSeq < 0 && c.fetchStallUntil > c.cycle {
		if !ok || c.fetchStallUntil < cycle {
			cycle, ok = c.fetchStallUntil, true
		}
	}
	return cycle, ok
}

// String summarizes the core state for debugging.
func (c *Core) String() string {
	return fmt.Sprintf("core %d pc=%d rob=%d lsq=%d wb=%d halted=%v",
		c.id, c.pc, c.robLen, len(c.lsq), len(c.wb), c.halted)
}
