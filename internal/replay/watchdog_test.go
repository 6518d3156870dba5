package replay

import (
	"errors"
	"fmt"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
)

// block, load and ivs keep the watchdog table below readable.
func block(n uint32) replaylog.Entry {
	return replaylog.Entry{Type: replaylog.InorderBlock, Size: n}
}

func load(v uint64) replaylog.Entry { return replaylog.Entry{Type: replaylog.ReorderedLoad, Value: v} }

// ivs builds one core's stream: one interval per entry list, with
// timestamps 10, 20, ... offset by tsBase.
func ivs(core int, tsBase uint64, entries ...[]replaylog.Entry) replaylog.CoreLog {
	s := replaylog.CoreLog{Core: core}
	for i, es := range entries {
		s.Intervals = append(s.Intervals, replaylog.Interval{
			Seq: uint64(i), CISN: uint16(i), Timestamp: tsBase + 10*uint64(i+1), Entries: es,
		})
	}
	return s
}

func es(e ...replaylog.Entry) []replaylog.Entry { return e }

// outcome renders everything the watchdog and the HALT check decide:
// the step count, the typed error with every StallReport field (or
// the divergence and its message), the degradations, and each
// thread's PC, retired count and halt state.
func outcome(r *Replayer, res *Result, err error) string {
	s := fmt.Sprintf("steps=%d", r.steps)
	var stall *ErrStalled
	var div *ErrDiverged
	switch {
	case errors.As(err, &stall):
		rep := stall.Report
		s += fmt.Sprintf(" stall{steps=%d budget=%d core=%d iv=%d seq=%d done=%v halted=%v}",
			rep.Steps, rep.Budget, rep.Core, rep.Interval, rep.Seq, rep.Done, rep.Halted)
	case errors.As(err, &div):
		s += fmt.Sprintf(" diverged{core=%d iv=%d seq=%d: %v}", div.Core, div.Interval, div.Seq, div.Cause)
	case err != nil:
		s += fmt.Sprintf(" error{%v}", err)
	default:
		s += " ok"
		for _, d := range res.Degradations {
			s += fmt.Sprintf(" degraded{%v}", d)
		}
	}
	for c, th := range r.threads {
		s += fmt.Sprintf(" c%d{pc=%d instret=%d halted=%v}", c, th.PC, th.Instret, th.Halted)
	}
	return s
}

// TestWatchdogAtBlockBoundaries pins the replay loop's accounting: the
// watchdog budget ending just before, at and just after block and
// entry boundaries, a block that runs past HALT (alone and together
// with an exhausted budget, where the stall wins), and interpreter
// errors inside a block. Every expected line was produced by the
// per-instruction replay loop that the block interpreter replaced, so
// the two account steps, stalls and mismatches identically.
func TestWatchdogAtBlockBoundaries(t *testing.T) {
	noHalt := isa.NewBuilder("nohalt")
	noHalt.Li(isa.R(3), 1).Li(isa.R(4), 2)
	inputs := isa.NewBuilder("in")
	inputs.In(isa.R(3)).Halt()

	cases := []struct {
		name    string
		streams []replaylog.CoreLog
		prog    isa.Program
		budget  uint64
		partial bool
		want    string
	}{
		{name: "block6/budget5", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6)))}, budget: 5,
			want: "steps=6 stall{steps=6 budget=5 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=5 instret=5 halted=false}"},
		{name: "block6/budget6", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6)))}, budget: 6,
			want: "steps=6 ok c0{pc=6 instret=6 halted=true}"},
		{name: "block6/budget7", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6)))}, budget: 7,
			want: "steps=6 ok c0{pc=6 instret=6 halted=true}"},
		{name: "split2+4/budget1", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2), block(4)))}, budget: 1,
			want: "steps=2 stall{steps=2 budget=1 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=1 instret=1 halted=false}"},
		{name: "split2+4/budget2", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2), block(4)))}, budget: 2,
			want: "steps=3 stall{steps=3 budget=2 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=2 instret=2 halted=false}"},
		{name: "split2+4/budget3", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2), block(4)))}, budget: 3,
			want: "steps=4 stall{steps=4 budget=3 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=3 instret=3 halted=false}"},
		{name: "intervals2|4/budget2", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2)), es(block(4)))}, budget: 2,
			want: "steps=3 stall{steps=3 budget=2 core=0 iv=1 seq=1 done=[1] halted=[false]} c0{pc=2 instret=2 halted=false}"},
		{name: "intervals2|4/budget3", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2)), es(block(4)))}, budget: 3,
			want: "steps=4 stall{steps=4 budget=3 core=0 iv=1 seq=1 done=[1] halted=[false]} c0{pc=3 instret=3 halted=false}"},
		{name: "load-boundary/budget1", streams: []replaylog.CoreLog{ivs(0, 0, es(block(1), load(99), block(4)))}, budget: 1,
			want: "steps=2 stall{steps=2 budget=1 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=1 instret=1 halted=false}"},
		{name: "load-boundary/budget2", streams: []replaylog.CoreLog{ivs(0, 0, es(block(1), load(99), block(4)))}, budget: 2,
			want: "steps=3 stall{steps=3 budget=2 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=2 instret=2 halted=false}"},
		{name: "load-boundary/budget6", streams: []replaylog.CoreLog{ivs(0, 0, es(block(1), load(99), block(4)))}, budget: 6,
			want: "steps=6 ok c0{pc=6 instret=6 halted=true}"},
		{name: "overrun/auto", streams: []replaylog.CoreLog{ivs(0, 0, es(block(8)))},
			want: "steps=7 diverged{core=0 iv=0 seq=0: block overruns HALT after 6 of 8 instructions} c0{pc=6 instret=6 halted=true}"},
		{name: "overrun/budget5", streams: []replaylog.CoreLog{ivs(0, 0, es(block(8)))}, budget: 5,
			want: "steps=6 stall{steps=6 budget=5 core=0 iv=0 seq=0 done=[0] halted=[false]} c0{pc=5 instret=5 halted=false}"},
		{name: "overrun/budget6-stall-wins", streams: []replaylog.CoreLog{ivs(0, 0, es(block(8)))}, budget: 6,
			want: "steps=7 stall{steps=7 budget=6 core=0 iv=0 seq=0 done=[0] halted=[true]} c0{pc=6 instret=6 halted=true}"},
		{name: "overrun/budget7", streams: []replaylog.CoreLog{ivs(0, 0, es(block(8)))}, budget: 7,
			want: "steps=7 diverged{core=0 iv=0 seq=0: block overruns HALT after 6 of 8 instructions} c0{pc=6 instret=6 halted=true}"},
		{name: "overrun/partial", streams: []replaylog.CoreLog{ivs(0, 0, es(block(8)))}, partial: true,
			want: "steps=7 ok degraded{core 0 interval 0 (seq 0): block overruns HALT after 6 of 8 instructions} c0{pc=6 instret=6 halted=true}"},
		{name: "overrun-later-block", streams: []replaylog.CoreLog{ivs(0, 0, es(block(3)), es(block(5)))},
			want: "steps=7 diverged{core=0 iv=1 seq=1: block overruns HALT after 3 of 5 instructions} c0{pc=6 instret=6 halted=true}"},
		{name: "block-after-halt", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6)), es(block(2)))},
			want: "steps=7 diverged{core=0 iv=1 seq=1: block overruns HALT after 0 of 2 instructions} c0{pc=6 instret=6 halted=true}"},
		{name: "two-cores/budget8", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6))), ivs(1, 5, es(block(6)))}, budget: 8,
			want: "steps=9 stall{steps=9 budget=8 core=1 iv=0 seq=0 done=[1 0] halted=[true false]} c0{pc=6 instret=6 halted=true} c1{pc=2 instret=2 halted=false}"},
		{name: "two-cores/budget12", streams: []replaylog.CoreLog{ivs(0, 0, es(block(6))), ivs(1, 5, es(block(6)))}, budget: 12,
			want: "steps=12 ok c0{pc=6 instret=6 halted=true} c1{pc=6 instret=6 halted=true}"},
		{name: "pc-out-of-range", streams: []replaylog.CoreLog{ivs(0, 0, es(block(3)))}, prog: noHalt.MustBuild(),
			want: "steps=3 diverged{core=0 iv=0 seq=0: isa: PC 2 out of range [0,2)} c0{pc=2 instret=2 halted=false}"},
		{name: "out-of-input", streams: []replaylog.CoreLog{ivs(0, 0, es(block(2)))}, prog: inputs.MustBuild(),
			want: "steps=1 diverged{core=0 iv=0 seq=0: isa: IN executed past end of input stream} c0{pc=0 instret=0 halted=false}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &replaylog.Log{Cores: len(tc.streams), Patched: true, Streams: tc.streams,
				Inputs: make([][]uint64, len(tc.streams))}
			p := tc.prog
			if p.Code == nil {
				p = prog()
			}
			progs := make([]isa.Program, log.Cores)
			for i := range progs {
				progs[i] = p
			}
			cfg := DefaultConfig()
			cfg.WatchdogSteps = tc.budget
			cfg.AllowPartial = tc.partial
			r, err := New(cfg, log, progs, map[uint64]uint64{0x100: 42}, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if got := outcome(r, res, err); got != tc.want {
				t.Errorf("\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
