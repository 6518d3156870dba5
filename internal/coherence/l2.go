package coherence

import (
	"fmt"

	"relaxreplay/internal/interconnect"
)

// dirEntry is the L2 agent's per-line state. The L2 is the single
// ordering point for the line: at most one transaction is in flight
// per line (req, nil when the line is free), and later requests queue
// FIFO.
//
// The entry doubles as the backing store for the line's data (the L2
// plus memory behind it); residency in the configured L2 capacity is
// tracked by the entry's links in the agent's LRU list and affects
// latency only.
type dirEntry struct {
	line    uint64
	data    LineData
	owner   int    // core holding M or E, -1 when none
	sharers uint64 // bitmask of cores that may hold S copies

	queue []*reqMsg

	// clockHint remembers the last publisher's logical clock for this
	// line (piggyback ordering); carried on every grant.
	clockHint uint64

	// In-flight transaction state.
	req         *reqMsg
	dataReadyAt uint64
	pendingAcks int
	sharerSeen  bool

	snoop snoopMsg // the transaction's ring snoop (snoopy mode)

	// Residency LRU links, nil while not resident.
	lruPrev, lruNext *dirEntry
}

type l2agent struct {
	sys *System
	dir map[uint64]*dirEntry

	// Residency LRU for the latency model: a circular list through
	// the resident entries, most recent after the sentinel lru. A
	// request to a non-resident line pays the memory latency.
	lru       dirEntry
	residents int

	busyLines int
}

func newL2(sys *System) *l2agent {
	a := &l2agent{sys: sys, dir: make(map[uint64]*dirEntry)}
	a.lru.lruPrev, a.lru.lruNext = &a.lru, &a.lru
	return a
}

func (a *l2agent) node() int { return a.sys.cfg.Cores }

func (a *l2agent) entry(line uint64) *dirEntry {
	e := a.dir[line]
	if e == nil {
		e = &dirEntry{line: line, owner: -1}
		a.dir[line] = e
	}
	return e
}

// touchResident returns the extra latency for this access (memory
// latency when the line is not L2-resident) and makes e the most
// recent line, evicting least recent ones past the capacity.
func (a *l2agent) touchResident(e *dirEntry) uint64 {
	extra := uint64(0)
	if e.lruNext != nil {
		e.lruPrev.lruNext, e.lruNext.lruPrev = e.lruNext, e.lruPrev
	} else {
		a.sys.Stats.L2Misses++
		a.sys.tel.l2Misses.Inc(0)
		a.residents++
		extra = a.sys.cfg.MemLat
	}
	root := &a.lru
	e.lruPrev, e.lruNext = root, root.lruNext
	root.lruNext.lruPrev, root.lruNext = e, e
	for ; a.residents > a.sys.cfg.L2Capacity; a.residents-- {
		v := root.lruPrev
		v.lruPrev.lruNext, root.lruPrev = root, v.lruPrev
		v.lruPrev, v.lruNext = nil, nil
	}
	return extra
}

func (a *l2agent) receive(msg interconnect.Message) {
	switch p := msg.Payload.(type) {
	case *reqMsg:
		e := a.entry(p.line)
		if e.req != nil {
			e.queue = append(e.queue, p)
			return
		}
		a.begin(e, p)
	case *snoopMsg:
		a.snoopReturned(p)
	case *ackMsg:
		a.ackReceived(p)
	}
}

// begin starts processing an ordered request for a free line.
func (a *l2agent) begin(e *dirEntry, p *reqMsg) {
	e.req = p
	a.busyLines++

	if p.kind == reqPutM {
		// Writebacks need no snoop: accept if the sender is still the
		// owner, else drop the stale data.
		if e.owner == p.core {
			e.data = p.data
			e.owner = -1
		} else {
			a.sys.Stats.StaleWritebacks++
		}
		if a.sys.ClockOf != nil {
			// The evicted dirty line carries the writer's clock: later
			// readers served from the L2 must order after it.
			if h := a.sys.ClockOf(p.core); h > e.clockHint {
				e.clockHint = h
			}
		}
		a.touchResident(e)
		a.sys.push(event{cycle: a.sys.cycle + a.sys.cfg.L2Lat, kind: evPutAck, dir: e})
		return
	}

	e.dataReadyAt = a.sys.cycle + a.sys.cfg.L2Lat + a.touchResident(e)
	e.sharerSeen = false

	if a.sys.cfg.Protocol == Snoopy {
		e.snoop = snoopMsg{kind: p.kind, line: p.line, requester: p.core}
		a.sys.ring.Send(interconnect.Message{Src: a.node(), Dst: a.node(), Visit: true, Payload: &e.snoop})
		return
	}
	a.beginDirectory(e, p)
}

// beginDirectory sends targeted invalidations/fetches per the exact
// sharer/owner state and waits for the acks.
func (a *l2agent) beginDirectory(e *dirEntry, p *reqMsg) {
	targets := e.sharers
	if e.owner >= 0 {
		targets |= 1 << uint(e.owner)
	}
	targets &^= 1 << uint(p.core)
	if p.kind == reqGetS {
		// Reads only disturb the owner (downgrade); S copies stay.
		if e.owner >= 0 && e.owner != p.core {
			targets = 1 << uint(e.owner)
		} else {
			targets = 0
		}
	}
	e.pendingAcks = 0
	for c := 0; c < a.sys.cfg.Cores; c++ {
		if targets&(1<<uint(c)) == 0 {
			continue
		}
		e.pendingAcks++
		a.sys.Stats.InvalidationsSent++
		a.sys.tel.invalidations.Inc(p.core)
		a.send(c, &invMsg{line: p.line, requester: p.core, isWrite: p.kind == reqGetM})
	}
	e.sharerSeen = e.sharers&^(1<<uint(p.core)) != 0
	if e.pendingAcks == 0 {
		a.scheduleGrant(e)
	}
}

func (a *l2agent) ackReceived(p *ackMsg) {
	e := a.entry(p.line)
	if e.req == nil || e.pendingAcks == 0 {
		panic(fmt.Sprintf("coherence: unexpected ack for line %#x", p.line))
	}
	if p.hasData {
		e.data = p.data
		a.sys.Stats.CacheToCache++
		a.sys.tel.cacheToCache.Inc(p.from)
		e.dataReadyAt = a.sys.cycle
	}
	if p.clockHint > e.clockHint {
		e.clockHint = p.clockHint
	}
	e.pendingAcks--
	if e.pendingAcks == 0 {
		a.scheduleGrant(e)
	}
}

// snoopReturned completes the broadcast phase of a snoopy transaction.
func (a *l2agent) snoopReturned(p *snoopMsg) {
	e := a.entry(p.line)
	if e.req == nil || e.req.line != p.line {
		panic(fmt.Sprintf("coherence: stray snoop return for line %#x", p.line))
	}
	if p.hasOwner {
		e.data = p.ownerData
		e.dataReadyAt = a.sys.cycle
	}
	if p.clockHint > e.clockHint {
		e.clockHint = p.clockHint
	}
	e.sharerSeen = p.sharerSeen
	a.scheduleGrant(e)
}

// scheduleGrant sends the data grant once the data is ready, as an
// evGrant event when that is a later cycle.
func (a *l2agent) scheduleGrant(e *dirEntry) {
	if e.dataReadyAt <= a.sys.cycle {
		a.grant(e)
		return
	}
	a.sys.push(event{cycle: e.dataReadyAt, kind: evGrant, dir: e})
}

// grant sends the data grant for e's transaction and retires it.
func (a *l2agent) grant(e *dirEntry) {
	p := e.req
	st := stateS
	switch {
	case p.kind == reqGetM:
		st = stateM
		e.owner = p.core
		e.sharers = 0
	case !e.sharerSeen && e.owner < 0:
		st = stateE
		e.owner = p.core
		e.sharers = 0
	default:
		if e.owner >= 0 && e.owner != p.core {
			e.sharers |= 1 << uint(e.owner)
		}
		e.owner = -1
		e.sharers |= 1 << uint(p.core)
	}
	a.sys.Stats.Transactions++
	a.sys.tel.transactions.Inc(p.core)
	a.send(p.core, &dataMsg{line: p.line, data: e.data, state: st, clockHint: e.clockHint})
	a.finish(e)
}

// putAck acknowledges e's PutM to the evicting core and retires it.
func (a *l2agent) putAck(e *dirEntry) {
	a.send(e.req.core, &putAckMsg{line: e.line})
	a.finish(e)
}

// finish frees the line and starts the next queued request, if any.
func (a *l2agent) finish(e *dirEntry) {
	e.req = nil
	a.busyLines--
	if len(e.queue) > 0 {
		next := e.queue[0]
		copy(e.queue, e.queue[1:])
		e.queue = e.queue[:len(e.queue)-1]
		a.begin(e, next)
	}
}

func (a *l2agent) send(core int, payload any) {
	a.sys.ring.Send(interconnect.Message{Src: a.node(), Dst: core, Payload: payload})
}
