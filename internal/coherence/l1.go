package coherence

import (
	"fmt"

	"relaxreplay/internal/interconnect"
	"relaxreplay/internal/isa"
)

// noTag marks an invalid way in an L1 tag array. Line numbers are
// addresses shifted right by lineShift, so no line reaches it.
const noTag = ^uint64(0)

// mshr is one MSHR slot: an outstanding miss that operations to the
// same line coalesce onto. A slot is free when it has no waiters; the
// waiters backing array is kept from one miss to the next, and req is
// the slot's GetS/GetM message (the L2 drops it before granting).
type mshr struct {
	line    uint64
	wantM   bool // a store/RMW is waiting, so M is required
	waiters []Request
	req     reqMsg
}

// wbent is a writeback buffer entry: an evicted dirty line waiting for
// the L2 to order and acknowledge its PutM. The entry keeps supplying
// data to snoops until a remote write supersedes it.
type wbent struct {
	data       LineData
	superseded bool
	pending    int // outstanding PutM acks for this line
}

// l1cache is one core's L1. The tag, state, data and LRU arrays are
// flat and indexed set*ways+way, so a lookup reads one set's tags
// (one host cache line at the default four ways); a way is invalid
// exactly when its tag is noTag. The MSHRs are L1MSHRs fixed slots.
type l1cache struct {
	sys     *System
	core    int
	ways    int
	setMask uint64

	tags    []uint64
	states  []lineState
	data    []LineData
	lastUse []uint64 // LRU clock
	clock   uint64

	mshrs    []mshr
	mshrUsed int // occupied slots
	wb       map[uint64]*wbent
}

func newL1(sys *System, core int) *l1cache {
	n := sys.cfg.L1Sets * sys.cfg.L1Ways
	c := &l1cache{
		sys:     sys,
		core:    core,
		ways:    sys.cfg.L1Ways,
		setMask: uint64(sys.cfg.L1Sets - 1),
		tags:    make([]uint64, n),
		states:  make([]lineState, n),
		data:    make([]LineData, n),
		lastUse: make([]uint64, n),
		mshrs:   make([]mshr, sys.cfg.L1MSHRs),
		wb:      make(map[uint64]*wbent),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	return c
}

func (c *l1cache) busy() bool { return c.mshrUsed > 0 || len(c.wb) > 0 }

// setBase returns the index of way 0 of line's set.
func (c *l1cache) setBase(line uint64) int { return int(line&c.setMask) * c.ways }

// lookup returns the index of line's valid way, or -1.
//
//rrlint:hotpath
func (c *l1cache) lookup(line uint64) int {
	base := c.setBase(line)
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return base + i
		}
	}
	return -1
}

// mshrFor returns the slot of line's outstanding miss, or -1. Slots
// fill lowest first, so the scan stops after the occupied ones.
func (c *l1cache) mshrFor(line uint64) int {
	for i, seen := 0, 0; seen < c.mshrUsed; i++ {
		if m := &c.mshrs[i]; len(m.waiters) > 0 {
			if m.line == line {
				return i
			}
			seen++
		}
	}
	return -1
}

func (c *l1cache) touch(w int) {
	c.clock++
	c.lastUse[w] = c.clock
}

// submit accepts one memory operation; false means "retry next cycle".
//
//rrlint:hotpath
func (c *l1cache) submit(r Request) bool {
	line := LineOf(r.Addr)

	// Coalesce onto an outstanding miss.
	if i := c.mshrFor(line); i >= 0 {
		m := &c.mshrs[i]
		m.waiters = append(m.waiters, r)
		if r.Kind != Load {
			m.wantM = true
		}
		return true
	}

	w := c.lookup(line)
	switch {
	case r.Kind == Load && w >= 0:
		c.bindLoad(r, w)
		c.sys.Stats.L1Hits++
		c.sys.tel.l1Hits.Inc(c.core)
		return true
	case r.Kind != Load && w >= 0 && (c.states[w] == stateM || c.states[w] == stateE):
		c.bindWrite(r, w)
		c.sys.Stats.L1Hits++
		c.sys.tel.l1Hits.Inc(c.core)
		return true
	}

	// Miss (or store hit on a shared line: upgrade).
	if c.mshrUsed >= len(c.mshrs) {
		c.sys.Stats.MSHRRejects++
		c.sys.tel.mshrRejects.Inc(c.core)
		return false
	}
	kind := reqGetS
	if r.Kind != Load {
		kind = reqGetM
	}
	if w >= 0 && kind == reqGetM {
		c.sys.Stats.Upgrades++
		c.sys.tel.upgrades.Inc(c.core)
	} else {
		c.sys.Stats.L1Misses++
		c.sys.tel.l1Misses.Inc(c.core)
	}
	m := &c.mshrs[0]
	for i := 1; len(m.waiters) > 0; i++ {
		m = &c.mshrs[i]
	}
	m.line, m.wantM = line, kind == reqGetM
	m.waiters = append(m.waiters[:0], r)
	c.mshrUsed++
	m.req.kind, m.req.line, m.req.core = kind, line, c.core
	c.request(&m.req)
	return true
}

// request sends a request message to the L2 agent.
func (c *l1cache) request(msg *reqMsg) {
	c.sys.ring.Send(interconnect.Message{Src: c.core, Dst: c.sys.cfg.Cores, Payload: msg})
}

// bindLoad reads the word from way w, fires the perform event now,
// and schedules the pipeline completion after the L1 hit latency.
func (c *l1cache) bindLoad(r Request, w int) {
	c.touch(w)
	v := c.data[w][wordOf(r.Addr)]
	c.sys.perform(PerformEvent{Core: r.Core, ID: r.ID, Line: c.tags[w], Addr: r.Addr, IsRead: true, Value: v})
	c.sys.complete(r.Core, r.ID, v, c.sys.cfg.L1HitLat)
}

// bindWrite applies a store or RMW to the owned (M/E) line in way w.
func (c *l1cache) bindWrite(r Request, w int) {
	c.touch(w)
	c.states[w] = stateM
	word := &c.data[w][wordOf(r.Addr)]
	switch r.Kind {
	case Store:
		*word = r.StoreVal
		c.sys.perform(PerformEvent{
			Core: r.Core, ID: r.ID, Line: c.tags[w], Addr: r.Addr, IsWrite: true,
			Value: r.StoreVal, StoredVal: r.StoreVal, DidWrite: true,
		})
		c.sys.complete(r.Core, r.ID, 0, c.sys.cfg.L1HitLat)
	case RMW:
		old := *word
		newVal, write := isa.AmoApply(r.Instr, old, r.Rs2, r.Rd)
		if write {
			*word = newVal
		}
		c.sys.perform(PerformEvent{
			Core: r.Core, ID: r.ID, Line: c.tags[w], Addr: r.Addr, IsWrite: true, IsRead: true,
			Value: old, StoredVal: newVal, DidWrite: write,
		})
		c.sys.complete(r.Core, r.ID, old, c.sys.cfg.L1HitLat)
	default:
		panic("coherence: bindWrite on load")
	}
}

// receive handles a ring delivery at this core's station.
func (c *l1cache) receive(msg interconnect.Message, final bool) {
	switch p := msg.Payload.(type) {
	case *snoopMsg:
		if final {
			return // snoops terminate at the L2 agent, not here
		}
		if p.requester == c.core {
			return // own transaction passing by
		}
		c.sys.observeSnoop(c.core, p.line, p.kind == reqGetM, p.requester)
		data, has, held := c.snooped(p.line, p.kind == reqGetM)
		if has {
			p.ownerData, p.hasOwner = data, true
			c.sys.Stats.CacheToCache++
			c.sys.tel.cacheToCache.Inc(c.core)
		} else if held {
			p.sharerSeen = true
		}
		if c.sys.ClockOf != nil {
			// Fold this core's logical clock into the piggyback hint,
			// AFTER the snoop was observed (a conflict may just have
			// terminated an interval and advanced the clock). The fold
			// is unconditional: a core that read the line, terminated
			// the covering interval and silently evicted the line
			// still constrains the requester (write-after-read), and
			// only its clock carries that constraint.
			if h := c.sys.ClockOf(c.core); h > p.clockHint {
				p.clockHint = h
			}
		}
	case *invMsg:
		if !final {
			return
		}
		c.sys.observeSnoop(c.core, p.line, p.isWrite, p.requester)
		data, has, _ := c.snooped(p.line, p.isWrite)
		var hint uint64
		if c.sys.ClockOf != nil {
			// Unconditional for the same write-after-read reason as in
			// the snoopy path; the directory's (conservatively stale)
			// sharer set is exactly the set of cores that read the
			// line since its last write.
			hint = c.sys.ClockOf(c.core)
		}
		c.sys.ring.Send(interconnect.Message{
			Src:     c.core,
			Dst:     c.sys.cfg.Cores,
			Payload: &ackMsg{line: p.line, from: c.core, hasData: has, data: data, clockHint: hint},
		})
	case *dataMsg:
		if final {
			if c.sys.OnHint != nil {
				c.sys.OnHint(c.core, p.clockHint)
			}
			c.grant(p)
		}
	case *putAckMsg:
		if final {
			if wb := c.wb[p.line]; wb != nil {
				wb.pending--
				if wb.pending <= 0 {
					delete(c.wb, p.line)
				}
			}
		}
	}
}

// snooped applies a remote transaction for line to this cache. It
// returns the line data when this cache (or its writeback buffer) was
// the owner, plus whether the line was held at all.
func (c *l1cache) snooped(line uint64, isWrite bool) (data LineData, hasData, held bool) {
	if w := c.lookup(line); w >= 0 {
		held = true
		if c.states[w] == stateM {
			data, hasData = c.data[w], true
		}
		if isWrite {
			c.states[w], c.tags[w] = stateI, noTag
		} else {
			c.states[w] = stateS
		}
		return data, hasData, held
	}
	if wb := c.wb[line]; wb != nil && !wb.superseded {
		c.sys.Stats.WBBufferSupplies++
		c.sys.tel.wbSupplies.Inc(c.core)
		if isWrite {
			wb.superseded = true
			c.sys.Stats.SupersededWBEvents++
		}
		return wb.data, true, true
	}
	return LineData{}, false, false
}

// grant installs a granted line and binds all coalesced waiters.
func (c *l1cache) grant(p *dataMsg) {
	i := c.mshrFor(p.line)
	if i < 0 {
		panic(fmt.Sprintf("coherence: core %d grant for line %#x without MSHR", c.core, p.line))
	}
	m := &c.mshrs[i]

	if m.wantM && p.state == stateS {
		// A store joined a GetS in flight and the grant is only S:
		// complete the load waiters now and upgrade for the rest.
		w := c.install(p.line, &p.data, stateS)
		rest := m.waiters[:0]
		for _, r := range m.waiters {
			if r.Kind == Load {
				c.bindLoad(r, w)
			} else {
				rest = append(rest, r)
			}
		}
		m.waiters = rest
		c.sys.Stats.Upgrades++
		c.sys.tel.upgrades.Inc(c.core)
		m.req.kind = reqGetM
		c.request(&m.req)
		return
	}

	st := p.state
	if m.wantM {
		st = stateM // E grants upgrade silently
	}
	w := c.install(p.line, &p.data, st)
	for _, r := range m.waiters {
		if r.Kind == Load {
			c.bindLoad(r, w)
		} else {
			c.bindWrite(r, w)
		}
	}
	m.waiters = m.waiters[:0]
	c.mshrUsed--
}

// install places a line into the cache, evicting as needed, and
// returns its way.
func (c *l1cache) install(line uint64, data *LineData, st lineState) int {
	base := c.setBase(line)
	victim := -1
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] == line {
			victim = w // refresh in place (e.g. S copy being upgraded)
			break
		}
		if c.tags[w] == noTag {
			victim = w
		}
	}
	if victim < 0 {
		victim = base
		for w := base + 1; w < base+c.ways; w++ {
			if c.lastUse[w] < c.lastUse[victim] {
				victim = w
			}
		}
		c.evict(victim)
	}
	c.tags[victim], c.states[victim], c.data[victim] = line, st, *data
	c.touch(victim)
	return victim
}

// evict writes back the dirty victim in way w through the writeback
// buffer; clean victims are dropped silently (MESI allows it).
func (c *l1cache) evict(w int) {
	if c.states[w] != stateM {
		return
	}
	line := c.tags[w]
	c.sys.Stats.DirtyEvictions++
	c.sys.tel.dirtyEvicts.Inc(c.core)
	if wb := c.wb[line]; wb != nil {
		// Re-eviction before the previous PutM was acknowledged:
		// refresh the buffered data and track the extra ack.
		wb.data, wb.superseded = c.data[w], false
		wb.pending++
	} else {
		c.wb[line] = &wbent{data: c.data[w], pending: 1}
	}
	c.request(&reqMsg{kind: reqPutM, line: line, core: c.core, data: c.data[w]})
	if c.sys.OnDirtyEvict != nil {
		c.sys.OnDirtyEvict(c.core, line, c.sys.cycle)
	}
}
