package coherence

import (
	"math/rand"
	"reflect"
	"testing"

	"relaxreplay/internal/isa"
)

// testConfig returns a small, fast configuration.
func testConfig(cores int, p Protocol) Config {
	cfg := DefaultConfig(cores)
	cfg.Protocol = p
	return cfg
}

// harness drives a System and records its events.
type harness struct {
	t           *testing.T
	sys         *System
	performs    []PerformEvent
	completions []Completion
	nextID      []uint64
}

func newHarness(t *testing.T, cfg Config) *harness {
	return &harness{t: t, sys: New(cfg), nextID: make([]uint64, cfg.Cores)}
}

func (h *harness) tick() {
	h.sys.Tick()
	h.performs = append(h.performs, h.sys.DrainPerforms()...)
	h.completions = append(h.completions, h.sys.DrainCompletions()...)
}

// submit retries until the system accepts the request, then returns its id.
func (h *harness) submit(core int, kind Kind, addr, val uint64) uint64 {
	return h.submitReq(Request{Core: core, Addr: addr, Kind: kind, StoreVal: val})
}

// submitReq is submit for a prepared request; it assigns the id.
func (h *harness) submitReq(r Request) uint64 {
	id := h.nextID[r.Core]
	h.nextID[r.Core]++
	r.ID = id
	for i := 0; ; i++ {
		if h.sys.Submit(r) {
			return id
		}
		if i > 100000 {
			h.t.Fatalf("submit never accepted")
		}
		h.tick()
	}
}

// drain runs until the system is idle.
func (h *harness) drain() {
	for i := 0; i < 1_000_000; i++ {
		h.tick()
		if !h.sys.Busy() {
			return
		}
	}
	h.t.Fatalf("system never quiesced")
}

// completionOf returns the completion for (core, id), fataling if missing.
func (h *harness) completionOf(core int, id uint64) Completion {
	for _, c := range h.completions {
		if c.Core == core && c.ID == id {
			return c
		}
	}
	h.t.Fatalf("no completion for core %d id %d", core, id)
	return Completion{}
}

func (h *harness) performOf(core int, id uint64) PerformEvent {
	for _, p := range h.performs {
		if p.Core == core && p.ID == id {
			return p
		}
	}
	h.t.Fatalf("no perform event for core %d id %d", core, id)
	return PerformEvent{}
}

func protocols() map[string]Protocol {
	return map[string]Protocol{"snoopy": Snoopy, "directory": Directory}
}

func TestLoadMissThenHit(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, testConfig(2, p))
			h.sys.InitWord(0x100, 42)
			id := h.submit(0, Load, 0x100, 0)
			h.drain()
			if got := h.completionOf(0, id).Value; got != 42 {
				t.Fatalf("miss load = %d, want 42", got)
			}
			missCycle := h.completionOf(0, id).Cycle
			if missCycle < 10 {
				t.Fatalf("miss completed suspiciously fast: cycle %d", missCycle)
			}
			// Second load: L1 hit, completes in exactly hit latency.
			start := h.sys.Cycle()
			id2 := h.submit(0, Load, 0x100, 0)
			h.drain()
			c2 := h.completionOf(0, id2)
			if c2.Value != 42 {
				t.Fatalf("hit load = %d", c2.Value)
			}
			if lat := c2.Cycle - start; lat != h.sys.Config().L1HitLat {
				t.Fatalf("hit latency = %d, want %d", lat, h.sys.Config().L1HitLat)
			}
			if h.sys.Stats.L1Hits != 1 || h.sys.Stats.L1Misses != 1 {
				t.Fatalf("stats = %+v", h.sys.Stats)
			}
		})
	}
}

func TestStoreVisibleToOtherCore(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, testConfig(4, p))
			h.submit(0, Store, 0x200, 7)
			h.drain()
			id := h.submit(3, Load, 0x200, 0)
			h.drain()
			if got := h.completionOf(3, id).Value; got != 7 {
				t.Fatalf("remote load = %d, want 7 (%s)", got, name)
			}
			if p == Snoopy && h.sys.Stats.CacheToCache == 0 {
				t.Fatalf("expected cache-to-cache supply from M owner")
			}
		})
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, testConfig(3, p))
			// Both 1 and 2 read the line (S copies).
			h.submit(1, Load, 0x300, 0)
			h.submit(2, Load, 0x300, 0)
			h.drain()
			// 0 writes.
			h.submit(0, Store, 0x300, 99)
			h.drain()
			// Both re-read; must see 99.
			a := h.submit(1, Load, 0x300, 0)
			h.drain()
			b := h.submit(2, Load, 0x300, 0)
			h.drain()
			if h.completionOf(1, a).Value != 99 || h.completionOf(2, b).Value != 99 {
				t.Fatalf("stale value after invalidation (%s)", name)
			}
		})
	}
}

func TestExclusiveGrantSilentUpgrade(t *testing.T) {
	h := newHarness(t, testConfig(2, Snoopy))
	h.submit(0, Load, 0x400, 0) // sole reader -> E
	h.drain()
	tx := h.sys.Stats.Transactions
	// Store to the same line must hit locally (silent E->M).
	id := h.submit(0, Store, 0x400, 5)
	h.drain()
	if h.sys.Stats.Transactions != tx {
		t.Fatalf("E->M upgrade should be silent; transactions %d -> %d", tx, h.sys.Stats.Transactions)
	}
	if got := h.sys.PeekWord(0x400); got != 5 {
		t.Fatalf("PeekWord = %d", got)
	}
	_ = id
}

func TestSharedStoreUpgrades(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, testConfig(2, p))
			h.submit(0, Load, 0x500, 0)
			h.submit(1, Load, 0x500, 0)
			h.drain() // both S (one may be E then downgraded)
			h.submit(0, Store, 0x500, 11)
			h.drain()
			id := h.submit(1, Load, 0x500, 0)
			h.drain()
			if got := h.completionOf(1, id).Value; got != 11 {
				t.Fatalf("load after upgrade = %d", got)
			}
		})
	}
}

func TestRMWAtomicIncrements(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			const cores, per = 4, 25
			h := newHarness(t, testConfig(cores, p))
			done := make([]int, cores)
			for !allDone(done, per) {
				for c := 0; c < cores; c++ {
					if done[c] < per {
						h.sys.Submit(Request{Core: c, ID: uint64(done[c]), Addr: 0x600, Kind: RMW,
							Instr: isa.Instr{Op: isa.AMOADD}, Rs2: 1})
						done[c]++
					}
				}
				h.tick()
			}
			h.drain()
			if got := h.sys.PeekWord(0x600); got != cores*per {
				t.Fatalf("counter = %d, want %d (%s)", got, cores*per, name)
			}
		})
	}
}

func allDone(done []int, per int) bool {
	for _, d := range done {
		if d < per {
			return false
		}
	}
	return true
}

func TestCASFailureDoesNotWrite(t *testing.T) {
	h := newHarness(t, testConfig(1, Snoopy))
	h.sys.InitWord(0x700, 10)
	id := h.submitReq(Request{Core: 0, Addr: 0x700, Kind: RMW, Instr: isa.Instr{Op: isa.CAS}, Rs2: 99, Rd: 11})
	h.drain()
	if got := h.completionOf(0, id).Value; got != 10 {
		t.Fatalf("CAS old = %d", got)
	}
	if got := h.sys.PeekWord(0x700); got != 10 {
		t.Fatalf("failed CAS wrote memory: %d", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := testConfig(2, Snoopy)
	cfg.L1Sets = 2 // tiny cache to force evictions
	cfg.L1Ways = 2
	h := newHarness(t, testConfig(2, Snoopy))
	h.sys = New(cfg)
	h.nextID = make([]uint64, cfg.Cores)
	// Write many distinct lines mapping to few sets.
	for i := 0; i < 16; i++ {
		h.submit(0, Store, uint64(i)*LineSize, uint64(i+1))
		h.drain()
	}
	if h.sys.Stats.DirtyEvictions == 0 {
		t.Fatalf("expected dirty evictions")
	}
	// All values must survive eviction: read them back from core 1.
	for i := 0; i < 16; i++ {
		id := h.submit(1, Load, uint64(i)*LineSize, 0)
		h.drain()
		if got := h.completionOf(1, id).Value; got != uint64(i+1) {
			t.Fatalf("line %d lost on eviction: %d", i, got)
		}
	}
}

func TestSnoopObserverSnoopySeesAllTraffic(t *testing.T) {
	h := newHarness(t, testConfig(4, Snoopy))
	type obs struct {
		core  int
		line  uint64
		write bool
	}
	var seen []obs
	h.sys.OnRemoteSnoop = func(core int, line uint64, w bool, _ int, _ uint64) {
		seen = append(seen, obs{core, line, w})
	}
	h.submit(0, Store, 0x800, 1)
	h.drain()
	// Cores 1..3 must all have observed the GetM; core 0 must not.
	got := map[int]bool{}
	for _, o := range seen {
		if o.core == 0 {
			t.Fatalf("requester observed its own snoop")
		}
		if o.line != LineOf(0x800) || !o.write {
			t.Fatalf("bad observation %+v", o)
		}
		got[o.core] = true
	}
	for c := 1; c < 4; c++ {
		if !got[c] {
			t.Fatalf("core %d missed the snoop", c)
		}
	}
}

func TestSnoopObserverDirectoryTargetedOnly(t *testing.T) {
	h := newHarness(t, testConfig(4, Directory))
	var observers []int
	h.sys.OnRemoteSnoop = func(core int, _ uint64, _ bool, _ int, _ uint64) {
		observers = append(observers, core)
	}
	// Core 2 caches the line; core 0 writes it. Only core 2 should observe.
	h.submit(2, Load, 0x900, 0)
	h.drain()
	observers = nil
	h.submit(0, Store, 0x900, 1)
	h.drain()
	if len(observers) != 1 || observers[0] != 2 {
		t.Fatalf("observers = %v, want [2]", observers)
	}
}

func TestDirtyEvictCallback(t *testing.T) {
	cfg := testConfig(1, Snoopy)
	cfg.L1Sets, cfg.L1Ways = 1, 1
	h := newHarness(t, cfg)
	h.sys = New(cfg)
	h.nextID = make([]uint64, 1)
	var evicted []uint64
	h.sys.OnDirtyEvict = func(_ int, line uint64, _ uint64) { evicted = append(evicted, line) }
	h.submit(0, Store, 0, 1)
	h.drain()
	h.submit(0, Store, LineSize, 2) // conflicts in the 1-entry cache
	h.drain()
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestPerformPrecedesCompletion(t *testing.T) {
	h := newHarness(t, testConfig(2, Snoopy))
	id := h.submit(0, Load, 0xA00, 0)
	h.drain()
	p, c := h.performOf(0, id), h.completionOf(0, id)
	if p.Cycle > c.Cycle {
		t.Fatalf("perform (%d) after completion (%d)", p.Cycle, c.Cycle)
	}
	if !p.IsRead || p.IsWrite {
		t.Fatalf("bad perform flags %+v", p)
	}
}

func TestFinalMemoryMergesOwnedLines(t *testing.T) {
	h := newHarness(t, testConfig(2, Snoopy))
	h.submit(0, Store, 0xB00, 123)
	h.submit(1, Store, 0xB40, 456)
	h.drain()
	mem := h.sys.FinalMemory()
	if mem[0xB00] != 123 || mem[0xB40] != 456 {
		t.Fatalf("FinalMemory = %v", mem)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := testConfig(1, Snoopy)
	cfg.L1MSHRs = 2
	h := newHarness(t, cfg)
	ok := 0
	for i := 0; i < 4; i++ {
		if h.sys.Submit(Request{Core: 0, ID: uint64(i), Addr: uint64(i) * LineSize, Kind: Load}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d, want 2 (MSHR limit)", ok)
	}
	if h.sys.Stats.MSHRRejects != 2 {
		t.Fatalf("rejects = %d", h.sys.Stats.MSHRRejects)
	}
	h.drain()
}

func TestUnalignedAccessPanics(t *testing.T) {
	h := newHarness(t, testConfig(1, Snoopy))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.sys.Submit(Request{Core: 0, Addr: 3, Kind: Load})
}

// TestPerLocationSerialization is the write-atomicity oracle: with
// random traffic from several cores to a handful of words, every load
// observes the most recent performed store to its word (per perform
// order), and stores to a word form a single total order.
func TestPerLocationSerialization(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			const cores = 4
			h := newHarness(t, testConfig(cores, p))
			rng := rand.New(rand.NewSource(1234))
			addrs := []uint64{0x40, 0x48, 0x80, 0x1000}
			type op struct {
				id    uint64
				kind  Kind
				addr  uint64
				value uint64
			}
			pendingPerCore := make([]int, cores)
			ops := make(map[[2]uint64]op) // (core,id) -> op
			var issued int
			nextVal := uint64(1)
			for issued < 400 {
				for c := 0; c < cores; c++ {
					if pendingPerCore[c] >= 4 || rng.Intn(3) != 0 {
						continue
					}
					o := op{
						id:   h.nextID[c],
						addr: addrs[rng.Intn(len(addrs))],
					}
					if rng.Intn(2) == 0 {
						o.kind = Store
						o.value = nextVal
						nextVal++
					}
					r := Request{Core: c, ID: o.id, Addr: o.addr, Kind: o.kind, StoreVal: o.value}
					if h.sys.Submit(r) {
						h.nextID[c]++
						ops[[2]uint64{uint64(c), o.id}] = o
						issued++
					}
				}
				h.tick()
			}
			h.drain()

			// Replay the perform events in (cycle, arrival) order per
			// word and check that load values match the last store.
			last := map[uint64]uint64{} // word addr -> value
			for _, ev := range h.performs {
				o := ops[[2]uint64{uint64(ev.Core), ev.ID}]
				if o.kind == Store {
					last[o.addr] = o.value
					continue
				}
				if ev.Value != last[o.addr] {
					t.Fatalf("load of %#x saw %d, want %d (perform order violated)",
						o.addr, ev.Value, last[o.addr])
				}
			}
		})
	}
}

// TestDeterminism: identical request schedules produce identical
// perform event streams.
func TestDeterminism(t *testing.T) {
	run := func() []PerformEvent {
		h := newHarness(t, testConfig(4, Snoopy))
		for i := 0; i < 50; i++ {
			c := i % 4
			kind := Load
			if i%3 == 0 {
				kind = Store
			}
			h.sys.Submit(Request{Core: c, ID: uint64(i), Addr: uint64(i%7) * 8, Kind: kind, StoreVal: uint64(i)})
			h.tick()
		}
		h.drain()
		return h.performs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestL2ResidencyLatency(t *testing.T) {
	cfg := testConfig(1, Snoopy)
	cfg.L2Capacity = 1
	h := newHarness(t, cfg)
	h.sys = New(cfg)
	h.nextID = make([]uint64, 1)
	h.submit(0, Load, 0, 0)
	h.drain()
	first := h.sys.Stats.L2Misses
	if first == 0 {
		t.Fatal("first touch should miss in L2")
	}
	// A different line evicts residency; re-touching the first line
	// must pay the memory latency again.
	h.submit(0, Load, LineSize, 0)
	h.drain()
	h.submit(0, Load, 4096*LineSize, 0) // far line, avoid L1 set reuse
	h.drain()
	if h.sys.Stats.L2Misses <= first {
		t.Fatal("expected more L2 misses after capacity eviction")
	}
}

func TestWritebackRaceSupersede(t *testing.T) {
	// Force a dirty eviction to race with a remote GetM: the evicting
	// core's writeback buffer must supply data exactly once and the
	// stale PutM must be dropped at the L2.
	cfg := testConfig(2, Snoopy)
	cfg.L1Sets, cfg.L1Ways = 1, 1
	h := newHarness(t, cfg)
	h.sys = New(cfg)
	h.nextID = make([]uint64, cfg.Cores)

	// Core 0 dirties line A, then dirties conflicting line B to evict A.
	h.submit(0, Store, 0, 7)
	h.drain()
	a := h.sys.Submit(Request{Core: 0, ID: 90, Addr: LineSize, Kind: Store, StoreVal: 9})
	if !a {
		t.Fatal("submit rejected")
	}
	// Immediately have core 1 write line A while the PutM is in flight.
	b := h.sys.Submit(Request{Core: 1, ID: 91, Addr: 0, Kind: Store, StoreVal: 11})
	if !b {
		t.Fatal("submit rejected")
	}
	h.drain()
	if got := h.sys.PeekWord(0); got != 11 {
		t.Fatalf("line A = %d, want 11 (core 1's write must win)", got)
	}
	if got := h.sys.PeekWord(LineSize); got != 9 {
		t.Fatalf("line B = %d", got)
	}
	// Read everything back from core 1 to flush states.
	id := h.submit(1, Load, LineSize, 0)
	h.drain()
	if h.completionOf(1, id).Value != 9 {
		t.Fatal("line B lost")
	}
}

func TestDirectoryStaleSharerAck(t *testing.T) {
	// A silently-evicted sharer must still ack invalidations.
	cfg := testConfig(2, Directory)
	cfg.L1Sets, cfg.L1Ways = 1, 1
	h := newHarness(t, cfg)
	h.sys = New(cfg)
	h.nextID = make([]uint64, cfg.Cores)

	// Core 1 reads line A (registered as sharer), then reads
	// conflicting line B, silently evicting A.
	h.submit(1, Load, 0, 0)
	h.drain()
	h.submit(1, Load, LineSize, 0)
	h.drain()
	// Core 0 writes line A: the directory still invalidates core 1,
	// which must ack without data. The transaction must complete.
	h.submit(0, Store, 0, 5)
	h.drain()
	if got := h.sys.PeekWord(0); got != 5 {
		t.Fatalf("write never completed: %d", got)
	}
	if h.sys.Stats.InvalidationsSent == 0 {
		t.Fatal("expected an invalidation to the stale sharer")
	}
}

func TestDirectoryOwnerDowngradeOnRead(t *testing.T) {
	h := newHarness(t, testConfig(2, Directory))
	h.submit(0, Store, 0x40, 3) // core 0 owns M
	h.drain()
	id := h.submit(1, Load, 0x40, 0) // fetch + downgrade
	h.drain()
	if h.completionOf(1, id).Value != 3 {
		t.Fatal("downgrade lost the dirty data")
	}
	// Core 0 can still read its (now S) copy locally.
	tx := h.sys.Stats.Transactions
	id2 := h.submit(0, Load, 0x40, 0)
	h.drain()
	if h.completionOf(0, id2).Value != 3 || h.sys.Stats.Transactions != tx {
		t.Fatal("S copy not retained after downgrade")
	}
}

func TestUpgradeRaceLosesCopy(t *testing.T) {
	// Both cores hold S and both upgrade: one wins, the other's
	// upgrade becomes a full miss and must still complete with the
	// winner's data visible in the per-location order.
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, testConfig(2, p))
			h.submit(0, Load, 0x80, 0)
			h.submit(1, Load, 0x80, 0)
			h.drain()
			// Simultaneous upgrades.
			h.sys.Submit(Request{Core: 0, ID: 50, Addr: 0x80, Kind: Store, StoreVal: 1})
			h.sys.Submit(Request{Core: 1, ID: 51, Addr: 0x80, Kind: Store, StoreVal: 2})
			h.drain()
			got := h.sys.PeekWord(0x80)
			if got != 1 && got != 2 {
				t.Fatalf("final = %d", got)
			}
			// Whoever performed last owns the final value; perform
			// events must reflect a total order.
			var order []uint64
			for _, ev := range h.performs {
				if ev.IsWrite && ev.Line == LineOf(0x80) {
					order = append(order, ev.Value)
				}
			}
			if len(order) != 2 || order[1] != got {
				t.Fatalf("perform order %v vs final %d", order, got)
			}
		})
	}
}

func TestRMWCoalescedBehindLoadMiss(t *testing.T) {
	// An RMW submitted while a GetS for the same line is in flight
	// must coalesce, upgrade, and still apply atomically.
	h := newHarness(t, testConfig(2, Snoopy))
	h.sys.InitWord(0x40, 10)
	h.sys.Submit(Request{Core: 0, ID: 1, Addr: 0x40, Kind: Load})
	h.sys.Submit(Request{Core: 0, ID: 2, Addr: 0x40, Kind: RMW,
		Instr: isa.Instr{Op: isa.AMOADD}, Rs2: 5})
	h.drain()
	if got := h.sys.PeekWord(0x40); got != 15 {
		t.Fatalf("RMW lost: %d", got)
	}
	if h.completionOf(0, 1).Value != 10 {
		t.Fatal("load observed post-RMW value despite being older in submit order")
	}
}

// TestStatsCountersComplete: Sub and AddScaled walk Stats.counters,
// so a field missing from that list would be silently dropped.
func TestStatsCountersComplete(t *testing.T) {
	var s Stats
	if n := reflect.TypeOf(s).NumField(); n != len(s.counters()) {
		t.Fatalf("Stats has %d fields, counters lists %d", n, len(s.counters()))
	}
	seen := make(map[*uint64]bool)
	for _, c := range s.counters() {
		seen[c] = true
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !seen[v.Field(i).Addr().Interface().(*uint64)] {
			t.Errorf("Stats.%s missing from counters", v.Type().Field(i).Name)
		}
	}
}
