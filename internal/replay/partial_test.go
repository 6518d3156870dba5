package replay

import (
	"bytes"
	"errors"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// twoCoreLog: core 0 replays cleanly; core 1's stream lies about its
// block length (as if later intervals were lost and a patched store
// never arrived), so core 1 diverges.
func twoCoreLog() *replaylog.Log {
	return &replaylog.Log{
		Cores:   2,
		Patched: true,
		Inputs:  make([][]uint64, 2),
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 6}}},
			}},
			{Core: 1, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 20, Entries: []replaylog.Entry{{Type: replaylog.InorderBlock, Size: 99}}},
			}},
		},
	}
}

func TestStrictReplayReturnsTypedDivergence(t *testing.T) {
	r, err := New(DefaultConfig(), twoCoreLog(), []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) {
		t.Fatalf("err = %v (%T), want *ErrDiverged", err, err)
	}
	if div.Core != 1 || div.Interval != 0 || div.Seq != 0 {
		t.Fatalf("divergence at core %d interval %d seq %d, want core 1 interval 0 seq 0", div.Core, div.Interval, div.Seq)
	}
}

func TestPartialReplayDegradesDivergedCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	tel := telemetry.New(telemetry.Options{Shards: 2})
	cfg.Telemetry = tel
	r, err := New(cfg, twoCoreLog(), []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("partial replay failed outright: %v", err)
	}
	if !res.Degraded() || len(res.Degradations) != 1 {
		t.Fatalf("Degradations = %v", res.Degradations)
	}
	d := res.Degradations[0]
	if d.Core != 1 || d.Interval != 0 {
		t.Fatalf("degradation = %+v, want core 1 interval 0", d)
	}
	// Core 0 must be fully replayed and authoritative.
	if res.FinalRegs[0][3] != 42 || res.FinalRegs[0][5] != 47 {
		t.Fatalf("core 0 regs = %v", res.FinalRegs[0][:6])
	}
	found := false
	for _, m := range tel.Registry().Snapshot() {
		if m.Name == "replay.degraded" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("replay.degraded counter not incremented")
	}
}

// A core whose tail intervals were lost stops early: under
// AllowPartial that is a degradation (did not reach HALT), not a
// failure.
func TestPartialReplayIncompleteCore(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	r, err := New(cfg, log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Interval != -1 {
		t.Fatalf("Degradations = %v", res.Degradations)
	}
	if res.Instret[0] != 2 {
		t.Fatalf("instret = %d, want the 2 replayed instructions", res.Instret[0])
	}
}

func TestWatchdogProducesStallReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogSteps = 3 // the log legitimately needs 6
	tel := telemetry.New(telemetry.Options{Shards: 2})
	cfg.Telemetry = tel
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	r, err := New(cfg, log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	var stall *ErrStalled
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v (%T), want *ErrStalled", err, err)
	}
	rep := stall.Report
	if rep.Budget != 3 || rep.Steps != 4 || rep.Core != 0 || rep.Interval != 0 {
		t.Fatalf("stall report = %+v", rep)
	}
	if len(rep.Done) != 1 || rep.Done[0] != 0 || len(rep.Halted) != 1 || rep.Halted[0] {
		t.Fatalf("per-core state = done %v halted %v", rep.Done, rep.Halted)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("stall report has no telemetry snapshot")
	}
	if rep.String() == "" || stall.Error() == "" {
		t.Fatal("stall report does not render")
	}
	// The watchdog must also fire under AllowPartial: a stall is
	// global, not a per-core degradation.
	cfg.AllowPartial = true
	r, _ = New(cfg, log, []isa.Program{prog()}, nil, nil)
	if _, err := r.Run(); !errors.As(err, &stall) {
		t.Fatalf("AllowPartial suppressed the watchdog: %v", err)
	}
}

// The auto budget must never fire on a truthful log.
func TestWatchdogAutoBudgetAllowsHonestLogs(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 6})
	r, err := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// End-of-run incompleteness in strict mode is a typed divergence too.
func TestStrictIncompleteIsTyped(t *testing.T) {
	log := patchedLog(replaylog.Entry{Type: replaylog.InorderBlock, Size: 2})
	r, _ := New(DefaultConfig(), log, []isa.Program{prog()}, nil, nil)
	_, err := r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) || div.Interval != -1 || div.Core != 0 {
		t.Fatalf("err = %v", err)
	}
}

// lostCoreZero encodes l as v3 and flips one payload byte in each of
// core 0's frames (its stream frame and its one group frame), so a
// robust decode loses core 0 entirely and returns Streams=[core 1]
// with Cores still 2.
func lostCoreZero(t testing.TB, l *replaylog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replaylog.EncodeV3(&buf, l); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// A frame is sync(4) type(1) length(4) payload crc(4). Core 0's
	// stream payload starts with core as a u32, its group payload with
	// a flags byte and then core as a varint.
	sync := []byte{0xF5, 'R', 'F', '2'}
	flipped := 0
	for i := 0; i+11 < len(data); i++ {
		if !bytes.Equal(data[i:i+4], sync) {
			continue
		}
		switch replaylog.FrameType(data[i+4]) {
		case replaylog.FrameStream:
			if data[i+9] == 0 && data[i+10] == 0 && data[i+11] == 0 && data[i+12] == 0 {
				data[i+13] ^= 0xFF
				flipped++
			}
		case replaylog.FrameIvGroup:
			if data[i+10] == 0 {
				data[i+11] ^= 0xFF
				flipped++
			}
		}
	}
	if flipped != 2 {
		t.Fatalf("flipped %d frames of core 0, want its stream and group frames", flipped)
	}
	return data
}

// A damaged log can decode with its streams in a different order than
// its cores, or with a core missing: replay must index streams by
// position, not by core id, and end a streamless core short of HALT.
func TestReplayLostCoreStream(t *testing.T) {
	data := lostCoreZero(t, twoCoreLog())
	l, rep, err := replaylog.DecodeRobust(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || l.Cores != 2 || len(l.Streams) != 1 || l.Streams[0].Core != 1 {
		t.Fatalf("decode: cores %d, streams %v, report %v", l.Cores, l.Streams, rep)
	}
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	r, err := New(cfg, l, []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Core 1's stream lies about its block (it overruns HALT); core 0
	// has no stream and never reaches HALT.
	if len(res.Degradations) != 2 ||
		res.Degradations[0].Core != 1 || res.Degradations[0].Interval != 0 ||
		res.Degradations[1].Core != 0 || !res.Degradations[1].EndOfLog() {
		t.Fatalf("Degradations = %v", res.Degradations)
	}

	// With core 1 honest, the missing core is the only failure: a
	// degradation under AllowPartial, a typed end-of-log divergence
	// otherwise.
	honest := twoCoreLog()
	honest.Streams[1].Intervals[0].Entries[0].Size = 6
	l, _, err = replaylog.DecodeRobust(bytes.NewReader(lostCoreZero(t, honest)))
	if err != nil {
		t.Fatal(err)
	}
	r, _ = New(cfg, l, []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	res, err = r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Core != 0 || !res.Degradations[0].EndOfLog() {
		t.Fatalf("Degradations = %v", res.Degradations)
	}
	if res.FinalRegs[1][5] != 47 || res.Instret[1] != 6 || res.Instret[0] != 0 {
		t.Fatalf("core 1 regs %v, instret %v", res.FinalRegs[1][:6], res.Instret)
	}
	r, _ = New(DefaultConfig(), l, []isa.Program{prog(), prog()}, map[uint64]uint64{0x100: 42}, nil)
	_, err = r.Run()
	var div *ErrDiverged
	if !errors.As(err, &div) || div.Core != 0 || !div.EndOfLog() {
		t.Fatalf("strict replay: err = %v", err)
	}
}

// Streams listed out of core order must each drive their own core.
func TestReplayStreamsOutOfCoreOrder(t *testing.T) {
	short := isa.NewBuilder("short")
	short.Li(isa.R(6), 9).Halt()
	l := twoCoreLog()
	l.Streams[1].Intervals[0].Entries[0].Size = 2
	l.Streams[0], l.Streams[1] = l.Streams[1], l.Streams[0]
	r, err := New(DefaultConfig(), l, []isa.Program{prog(), short.MustBuild()}, map[uint64]uint64{0x100: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegs[0][5] != 47 || res.FinalRegs[1][6] != 9 || res.Instret[0] != 6 || res.Instret[1] != 2 {
		t.Fatalf("regs %v / %v, instret %v", res.FinalRegs[0][:6], res.FinalRegs[1][:7], res.Instret)
	}
}

func TestNewRejectsBadStreamCores(t *testing.T) {
	for _, tc := range []struct {
		name string
		core int
		dup  bool
	}{
		{"out-of-range", 2, false},
		{"negative", -1, false},
		{"duplicate", 0, true},
	} {
		l := twoCoreLog()
		l.Streams[1].Core = tc.core
		_, err := New(DefaultConfig(), l, []isa.Program{prog(), prog()}, nil, nil)
		var sc *ErrStreamCore
		if !errors.As(err, &sc) || sc.Stream != 1 || sc.Core != tc.core || sc.Duplicate != tc.dup {
			t.Errorf("%s: err = %v (%T)", tc.name, err, err)
		}
	}
}
