package replay

import (
	"runtime"
	"strings"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
)

// prog builds: ld r3,[0x100]; st r4->[0x108]; add; halt.
func prog() isa.Program {
	b := isa.NewBuilder("p")
	b.Li(isa.R(10), 0x100)
	b.Ld(isa.R(3), isa.R(10), 0)
	b.Li(isa.R(4), 5)
	b.St(isa.R(4), isa.R(10), 8)
	b.Add(isa.R(5), isa.R(3), isa.R(4))
	b.Halt()
	return b.MustBuild()
}

func patchedLog(entries ...replaylog.Entry) *replaylog.Log {
	return &replaylog.Log{
		Cores:   1,
		Patched: true,
		Streams: []replaylog.CoreLog{{Core: 0, Intervals: []replaylog.Interval{
			{Seq: 0, Timestamp: 10, Entries: entries},
		}}},
		Inputs: make([][]uint64, 1),
	}
}

func TestReplayInorderBlock(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegs[0][3] != 42 || res.FinalRegs[0][5] != 47 {
		t.Fatalf("regs = %v", res.FinalRegs[0][:6])
	}
	if res.FinalMemory[0x108] != 5 {
		t.Fatalf("mem = %v", res.FinalMemory)
	}
	if res.Instret[0] != 6 {
		t.Fatalf("instret = %d", res.Instret[0])
	}
}

func TestReplayReorderedLoadInjectsValue(t *testing.T) {
	log := patchedLog(
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 1},
		replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 99}, // the ld
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 4},
	)
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The injected 99 must override the memory value 42.
	if res.FinalRegs[0][3] != 99 || res.FinalRegs[0][5] != 104 {
		t.Fatalf("regs = %v", res.FinalRegs[0][:6])
	}
}

func TestReplayDummySkipsStoreAndPatchedStoreApplies(t *testing.T) {
	log := patchedLog(
		replaylog.Entry{Type: replaylog.PatchedStore, Addr: 0x108, Value: 77},
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 3},
		replaylog.Entry{Type: replaylog.Dummy}, // the st
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 2},
	)
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The store instruction was skipped; the patched value stands.
	if res.FinalMemory[0x108] != 77 {
		t.Fatalf("mem[0x108] = %d", res.FinalMemory[0x108])
	}
	if res.Instret[0] != 6 {
		t.Fatalf("instret = %d (dummy must count as one instruction)", res.Instret[0])
	}
}

func TestReplayRejectsUnpatchedLog(t *testing.T) {
	log := patchedLog()
	log.Patched = false
	if _, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil); err == nil {
		t.Fatal("unpatched log accepted")
	}
}

func TestReplayRejectsWrongProgramCount(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	if _, err := New(DefaultConfig(), log, nil, nil, nil); err == nil {
		t.Fatal("missing programs accepted")
	}
}

func TestReplayEntryTypeMismatch(t *testing.T) {
	// A ReorderedLoad entry pointing at a non-load instruction.
	log := patchedLog(
		replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 1}, // pc0 is LI
	)
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "non-load") {
		t.Fatalf("err = %v", err)
	}

	log = patchedLog(
		replaylog.Entry{Type: replaylog.Dummy}, // pc0 is LI, not a store
	)
	r, _ = New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "non-store") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayBlockOverrunsHalt(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 99})
	r, _ := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "HALT") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayIncompleteExecution(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	r, _ := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "HALT") {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayIntervalOrderAcrossCores(t *testing.T) {
	// Core 1 writes 0x100=7 (ts 10); core 0 then reads it (ts 20):
	// the cross-core value must flow by interval order.
	reader := isa.NewBuilder("reader")
	reader.Li(isa.R(10), 0x100)
	reader.Ld(isa.R(3), isa.R(10), 0)
	reader.Halt()
	writer := isa.NewBuilder("writer")
	writer.Li(isa.R(10), 0x100)
	writer.Li(isa.R(4), 7)
	writer.St(isa.R(4), isa.R(10), 0)
	writer.Halt()
	log := &replaylog.Log{
		Cores:   2,
		Patched: true,
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 20, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 3}}},
			}},
			{Core: 1, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 4}}},
			}},
		},
		Inputs: make([][]uint64, 2),
	}
	r, err := New(DefaultConfig(), log, []isa.Program{reader.MustBuild(), writer.MustBuild()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegs[0][3] != 7 {
		t.Fatalf("reader saw %d, want 7 (interval order violated)", res.FinalRegs[0][3])
	}
}

func TestReplayTimingModel(t *testing.T) {
	cfg := Config{IntervalSwitchCycles: 100, BlockInterruptCycles: 10, EntryEmulationCycles: 1, UserCPIFactor: 2}
	log := patchedLog(
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 1},
		replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 99},
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 4},
	)
	r, err := New(cfg, log, []isa.Program{prog()}, nil, []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// OS: 1 interval switch (100) + 2 blocks (20) + 1 entry (1) = 121.
	if res.Timing.OSCycles != 121 {
		t.Fatalf("OS cycles = %d", res.Timing.OSCycles)
	}
	// User: 5 instructions * 1.5 CPI * 2.0 factor = 15.
	if res.Timing.UserCycles != 15 {
		t.Fatalf("user cycles = %d", res.Timing.UserCycles)
	}
	if res.Timing.Total() != 136 {
		t.Fatalf("total = %d", res.Timing.Total())
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	rep := &Result{
		FinalMemory: map[uint64]uint64{0x10: 1},
		FinalRegs:   [][isa.NumRegs]uint64{{}},
		Instret:     []uint64{5},
	}
	regs := [][isa.NumRegs]uint64{{}}
	if err := Verify(rep, map[uint64]uint64{0x10: 1}, regs, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(rep, map[uint64]uint64{0x10: 2}, regs, []uint64{5}); err == nil {
		t.Fatal("memory divergence missed")
	}
	if err := Verify(rep, map[uint64]uint64{0x10: 1, 0x20: 3}, regs, []uint64{5}); err == nil {
		t.Fatal("missing word missed")
	}
	if err := Verify(rep, map[uint64]uint64{0x10: 1}, regs, []uint64{6}); err == nil {
		t.Fatal("instret divergence missed")
	}
	badRegs := [][isa.NumRegs]uint64{{1: 9}}
	if err := Verify(rep, map[uint64]uint64{0x10: 1}, badRegs, []uint64{5}); err == nil {
		t.Fatal("register divergence missed")
	}
	if err := Verify(rep, map[uint64]uint64{0x10: 1}, nil, nil); err == nil {
		t.Fatal("core-count mismatch missed")
	}
}

func TestReplayInputInjection(t *testing.T) {
	b := isa.NewBuilder("in")
	b.In(isa.R(3)).Halt()
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	log.Inputs = [][]uint64{{1234}}
	r, err := New(DefaultConfig(), log, []isa.Program{b.MustBuild()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegs[0][3] != 1234 {
		t.Fatalf("input not injected: %d", res.FinalRegs[0][3])
	}
}

func TestEstimateParallel(t *testing.T) {
	cfg := Config{IntervalSwitchCycles: 10, BlockInterruptCycles: 0, EntryEmulationCycles: 0, UserCPIFactor: 1}
	// Two cores, two independent intervals each, plus one dependence:
	// core1's second interval depends on core0's first.
	log := &replaylog.Log{
		Cores:   2,
		Patched: true,
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 90}}},
				{Seq: 1, Timestamp: 30, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 90}}},
			}},
			{Core: 1, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 20, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 90}}},
				{Seq: 1, Timestamp: 40,
					Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 90}},
					Preds:   []replaylog.Pred{{Core: 0, Seq: 0}}},
			}},
		},
	}
	est := EstimateParallel(cfg, log, nil)
	// Each interval costs 100. Sequential = 400. Parallel: both cores
	// run two intervals back to back = 200 (the edge 0/0 -> 1/1 is
	// satisfied: 1/1 starts at 100, after 0/0 ends at 100).
	if est.SequentialCycles != 400 {
		t.Fatalf("sequential = %d", est.SequentialCycles)
	}
	if est.ParallelCycles != 200 {
		t.Fatalf("parallel = %d", est.ParallelCycles)
	}
	if est.Speedup() != 2 {
		t.Fatalf("speedup = %f", est.Speedup())
	}
	// Add cross dependences: 1/0 waits for 0/0, 0/1 waits for 1/0.
	// Critical path: 0/0 (100) -> 1/0 (200) -> 0/1 (300); 1/1 overlaps
	// with 0/1, so the makespan grows to 300.
	log.Streams[0].Intervals[1].Preds = []replaylog.Pred{{Core: 1, Seq: 0}}
	log.Streams[1].Intervals[0].Preds = []replaylog.Pred{{Core: 0, Seq: 0}}
	est = EstimateParallel(cfg, log, nil)
	if est.ParallelCycles != 300 {
		t.Fatalf("chained parallel = %d", est.ParallelCycles)
	}
}

// Replaying the same patched log twice must give identical results:
// the replayer itself is deterministic.
func TestReplayIdempotent(t *testing.T) {
	log := patchedLog(
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 1},
		replaylog.Entry{Type: replaylog.ReorderedLoad, Value: 99},
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 4},
	)
	run := func() *Result {
		r, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalRegs[0] != b.FinalRegs[0] || a.Timing != b.Timing || a.Instret[0] != b.Instret[0] {
		t.Fatal("replayer not deterministic")
	}
	for k, v := range a.FinalMemory {
		if b.FinalMemory[k] != v {
			t.Fatal("memory differs between replays")
		}
	}
}

// A log supplies PatchedStore addresses, so a hostile one can scatter
// stores across the address space. Replay memory grows by one small
// page per distinct page touched: 4,096 stores 1 MiB apart must not
// grow the heap by more than 4 MiB.
func TestHostileStoresBoundReplayMemory(t *testing.T) {
	const stores, stride = 4096, 1 << 20
	entries := []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 6}}
	for i := uint64(0); i < stores; i++ {
		entries = append(entries, replaylog.Entry{Type: replaylog.PatchedStore, Addr: 0x10000 + i*stride, Value: i + 1})
	}
	log := patchedLog(entries...)
	progs := []isa.Program{prog()}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := New(DefaultConfig(), log, progs, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(r)
	t.Logf("heap growth: %d bytes", growth)

	// The program itself leaves 0x100 (initial) and 0x108 (stored).
	if len(res.FinalMemory) != stores+2 || res.FinalMemory[0x10000+(stores-1)*stride] != stores {
		t.Fatalf("final memory holds %d words", len(res.FinalMemory))
	}
	if growth > 4<<20 {
		t.Fatalf("replaying %d scattered stores grew the heap by %d bytes, want <= 4 MiB", stores, growth)
	}
}
