package machine

import (
	"errors"
	"testing"

	"relaxreplay/internal/isa"
)

// probeProg builds the probe-tick error workload: a long-latency MUL
// chain keeps the single core frozen (no architectural state moves
// while the multiplier grinds), so the fast-forward enters its
// frozen-tick/probe-tick sequence; the IN behind it has no input
// stream, so the moment it reaches the ROB head the core raises
// isa.ErrOutOfInput. Scanning the MUL latency slides the error cycle
// across the fast-forward's internal phases until it lands exactly on
// the probe tick.
func probeProg(chain int) isa.Program {
	b := isa.NewBuilder("probe-err")
	b.Li(isa.R(3), 7)
	for i := 0; i < chain; i++ {
		b.Mul(isa.R(3), isa.R(3), isa.R(3))
	}
	b.In(isa.R(4))
	b.Halt()
	return b.MustBuild()
}

// TestProbeTickErrorNotSwallowed is the regression test for the
// fast-forward probe-tick bug: the probe Step() in the old machine.Run
// and Session.Run loops never checked core errors, so an error raised
// exactly on the probe tick was detected one cycle late — and when
// that probe tick was also the MaxCycles boundary, the next iteration
// hit the budget check first and masked the real error as a
// *StallError. The scan over MUL latencies guarantees some
// configuration lands the error on a probe tick; for every
// configuration the fast-forwarded run must report the same error at
// the same cycle as the fully ticked run, including when MaxCycles is
// pinned to exactly the error cycle.
func TestProbeTickErrorNotSwallowed(t *testing.T) {
	landed := false
	for chain := 1; chain <= 3; chain++ {
		prog := probeProg(chain)
		for lat := uint64(1); lat <= 30; lat++ {
			build := func(noFF bool, maxCycles uint64) *Machine {
				cfg := DefaultConfig(1)
				cfg.CPU.MulLat = lat
				cfg.NoFastForward = noFF
				if maxCycles != 0 {
					cfg.MaxCycles = maxCycles
				}
				return New(cfg, []isa.Program{prog}, nil)
			}

			ticked := build(true, 0)
			errTicked := ticked.Run()
			if !errors.Is(errTicked, isa.ErrOutOfInput) {
				t.Fatalf("chain=%d lat=%d: ticked run: got %v, want ErrOutOfInput", chain, lat, errTicked)
			}
			errCycle := ticked.Cycle()

			ffed := build(false, 0)
			errFF := ffed.Run()
			if !errors.Is(errFF, isa.ErrOutOfInput) {
				t.Errorf("chain=%d lat=%d: fast-forwarded run: got %v, want ErrOutOfInput", chain, lat, errFF)
			}
			if ffed.Cycle() != errCycle {
				t.Errorf("chain=%d lat=%d: error detected at cycle %d fast-forwarded, %d ticked",
					chain, lat, ffed.Cycle(), errCycle)
			}
			if ffed.FastForwardedCycles() > 0 {
				landed = true
			}

			// MaxCycles pinned to the error cycle: the core error must
			// win over the budget, never be masked as a stall.
			pinned := build(false, errCycle)
			errPinned := pinned.Run()
			var stall *StallError
			if errors.As(errPinned, &stall) {
				t.Errorf("chain=%d lat=%d: core error at the MaxCycles boundary masked as %v", chain, lat, errPinned)
			} else if !errors.Is(errPinned, isa.ErrOutOfInput) {
				t.Errorf("chain=%d lat=%d: pinned run: got %v, want ErrOutOfInput", chain, lat, errPinned)
			}
		}
	}
	if !landed {
		t.Error("no scanned configuration engaged fast-forward before the error; the scan proves nothing")
	}
}

// TestStallReportAtMaxCycles: a deadlocked run must end with a
// *StallError naming exactly the MaxCycles budget.
func TestStallReportAtMaxCycles(t *testing.T) {
	// A spin on a memory word nobody writes: livelock by construction.
	b := isa.NewBuilder("spin")
	b.Li(isa.R(3), 0x100)
	b.Label("loop")
	b.Ld(isa.R(4), isa.R(3), 0)
	b.Beq(isa.R(4), isa.R(0), "loop")
	b.Halt()
	prog := b.MustBuild()
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 5_000
	m := New(cfg, []isa.Program{prog, prog}, nil)
	err := m.Run()
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if stall.Cycles != cfg.MaxCycles {
		t.Errorf("stall at %d, want %d", stall.Cycles, cfg.MaxCycles)
	}
}
