package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"relaxreplay/internal/isa"
)

// checkL1Arrays compares every L1's tag array with a brute-force scan
// of its ways and checks the MSHR slots' bookkeeping.
func checkL1Arrays(t *testing.T, s *System, lines []uint64) {
	t.Helper()
	for core, c := range s.l1s {
		for w, tag := range c.tags {
			if (tag == noTag) != (c.states[w] == stateI) {
				t.Fatalf("cycle %d core %d way %d: tag %#x with state %d", s.cycle, core, w, tag, c.states[w])
			}
			if tag != noTag && c.setBase(tag) != w-w%c.ways {
				t.Fatalf("cycle %d core %d: line %#x in way %d of the wrong set", s.cycle, core, tag, w)
			}
		}
		for _, line := range lines {
			want := -1
			for w := range c.tags {
				if c.states[w] != stateI && c.tags[w] == line {
					if want >= 0 {
						t.Fatalf("cycle %d core %d: line %#x in ways %d and %d", s.cycle, core, line, want, w)
					}
					want = w
				}
			}
			if got := c.lookup(line); got != want {
				t.Fatalf("cycle %d core %d: lookup(%#x) = %d, brute force %d", s.cycle, core, line, got, want)
			}
		}
		used := 0
		for i := range c.mshrs {
			m := &c.mshrs[i]
			if len(m.waiters) == 0 {
				continue
			}
			used++
			if j := c.mshrFor(m.line); j != i {
				t.Fatalf("cycle %d core %d: mshrFor(%#x) = %d, slot %d holds it", s.cycle, core, m.line, j, i)
			}
			for _, r := range m.waiters {
				if LineOf(r.Addr) != m.line {
					t.Fatalf("cycle %d core %d: waiter for %#x in the slot of line %#x", s.cycle, core, r.Addr, m.line)
				}
			}
		}
		if used != c.mshrUsed {
			t.Fatalf("cycle %d core %d: %d occupied MSHR slots, mshrUsed %d", s.cycle, core, used, c.mshrUsed)
		}
	}
}

// TestL1ArraysAndMSHRSlotsUnderRandomTraffic drives random loads,
// stores and atomics from three cores into a 2-set, 2-way L1 with two
// MSHRs, so snoops, evictions, coalescing, rejects and slot reuse are
// constant. After every tick lookup must agree with a brute-force scan
// and the MSHR slots must be consistent. Every accepted operation must
// perform and complete exactly once, bound to its own line, reading
// only values some store wrote to its address: a grant handed to a
// stale or reused slot would bind waiters of another line.
func TestL1ArraysAndMSHRSlotsUnderRandomTraffic(t *testing.T) {
	for name, p := range protocols() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg := testConfig(3, p)
				cfg.L1Sets, cfg.L1Ways, cfg.L1MSHRs = 2, 2, 2
				h := newHarness(t, cfg)
				rng := rand.New(rand.NewSource(seed))
				var lines []uint64
				for l := uint64(0); l < 7; l++ {
					lines = append(lines, l)
				}
				written := map[uint64]map[uint64]bool{} // addr -> values stored there
				accepted := map[[2]uint64]Request{}
				for cycle := 0; cycle < 4000; cycle++ {
					for core := 0; core < cfg.Cores; core++ {
						if rng.Intn(3) != 0 {
							continue
						}
						addr := lines[rng.Intn(len(lines))]*LineSize + uint64(rng.Intn(WordsPerLine))*8
						id := h.nextID[core]
						val := uint64(core+1)<<32 | id
						r := Request{Core: core, ID: id, Addr: addr, Kind: Kind(rng.Intn(3)), StoreVal: val}
						if r.Kind == RMW {
							r.Instr, r.Rs2 = isa.Instr{Op: isa.AMOSWAP}, val
						}
						if !h.sys.Submit(r) {
							continue
						}
						h.nextID[core]++
						accepted[[2]uint64{uint64(core), id}] = r
						if r.Kind != Load {
							if written[addr] == nil {
								written[addr] = map[uint64]bool{0: true}
							}
							written[addr][val] = true
						}
					}
					h.tick()
					checkL1Arrays(t, h.sys, lines)
				}
				h.drain()
				checkL1Arrays(t, h.sys, lines)

				if h.sys.Stats.DirtyEvictions == 0 || h.sys.Stats.MSHRRejects == 0 || h.sys.Stats.Upgrades == 0 {
					t.Fatalf("weak traffic: %+v", h.sys.Stats)
				}
				performs := map[[2]uint64]int{}
				for _, ev := range h.performs {
					k := [2]uint64{uint64(ev.Core), ev.ID}
					r, ok := accepted[k]
					if !ok || ev.Addr != r.Addr || ev.Line != LineOf(r.Addr) {
						t.Fatalf("perform %+v does not match its request %+v", ev, r)
					}
					if ev.IsRead && !written[ev.Addr][ev.Value] && ev.Value != 0 {
						t.Fatalf("%v at %#x read %#x, never stored there", r.Kind, ev.Addr, ev.Value)
					}
					performs[k]++
				}
				completions := map[[2]uint64]int{}
				for _, c := range h.completions {
					completions[[2]uint64{uint64(c.Core), c.ID}]++
				}
				for k := range accepted {
					if performs[k] != 1 || completions[k] != 1 {
						t.Fatalf("op %v: %d performs, %d completions", k, performs[k], completions[k])
					}
				}
			})
		}
	}
}

// TestNewRejectsNonPowerOfTwoSets: set selection masks the line number,
// so a set count that is not a power of two would alias sets.
func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	for _, sets := range []int{0, 3, 6, 500} {
		cfg := testConfig(2, Snoopy)
		cfg.L1Sets = sets
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted L1Sets = %d", sets)
				}
			}()
			New(cfg)
		}()
	}
}

// TestL2ResidencyLRUOrder drives the intrusive residency list with
// random touches at a small capacity and compares the hit/miss answer
// and the full most-recent-first order with a plain slice model.
func TestL2ResidencyLRUOrder(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 8} {
		cfg := testConfig(1, Snoopy)
		cfg.L2Capacity = capacity
		a := New(cfg).l2
		rng := rand.New(rand.NewSource(int64(capacity)))
		var model []uint64 // most recent first
		for step := 0; step < 2000; step++ {
			line := uint64(rng.Intn(12))
			hit := false
			for i, l := range model {
				if l == line {
					model = append(model[:i], model[i+1:]...)
					hit = true
					break
				}
			}
			model = append([]uint64{line}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
			if extra := a.touchResident(a.entry(line)); (extra == 0) != hit {
				t.Fatalf("capacity %d step %d: line %d extra latency %d, model hit %v", capacity, step, line, extra, hit)
			}
			var got []uint64
			for e := a.lru.lruNext; e != &a.lru; e = e.lruNext {
				got = append(got, e.line)
			}
			if fmt.Sprint(got) != fmt.Sprint(model) || a.residents != len(model) {
				t.Fatalf("capacity %d step %d: list %v (%d residents), model %v", capacity, step, got, a.residents, model)
			}
		}
	}
}
