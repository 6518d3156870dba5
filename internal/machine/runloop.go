package machine

import "fmt"

// Driver customizes the shared run loop (RunWith) without duplicating
// it. machine.Run uses the zero Driver; the recording session layers
// its recorder state on top through these hooks. The machine.Run /
// Session.Run pair used to be two hand-copied loops that drifted (the
// session grew recorder snapshots and a fault guard the machine
// lacked, and both lost core errors raised on the fast-forward probe
// tick); RunWith is the single implementation both now share.
//
// Every hook may be nil.
type Driver struct {
	// ExtraBusy keeps the loop running after the machine quiesces
	// while out-of-machine state (recorder TRAQs) still drains.
	ExtraBusy func() bool

	// ExtraWork extends WorkCount with out-of-machine mutation
	// counters, so the frozen-tick test also proves that state idle.
	ExtraWork func() uint64

	// EndCycle runs after every stepped cycle (not on fast-forwarded
	// ones), e.g. for cycle-sampled recorder telemetry.
	EndCycle func(cycle uint64)

	// CaptureExtra / ReplayExtra bracket the fast-forward statistics
	// replay for out-of-machine counters: CaptureExtra snapshots them
	// before the probe tick, ReplayExtra(n) adds n copies of the
	// per-cycle delta when n cycles are skipped.
	CaptureExtra func()
	ReplayExtra  func(n uint64)

	// FinalSample closes cycle-sampled tracks at the exact end of the
	// run (completion or stall). Nil means Machine.SampleTelemetry.
	FinalSample func()

	// DisableFF forces the fully ticked loop even when the machine
	// itself would allow fast-forward (the session disables it under
	// fault injection, whose recorder-side fault points observe
	// individual cycles).
	DisableFF bool

	// WrapErr decorates a core error. Nil means the plain
	// "machine: core %d" prefix.
	WrapErr func(core int, err error) error
}

// RunWith steps the machine to completion under the driver's hooks.
// See Run for the fast-forward contract.
func (m *Machine) RunWith(d Driver) error {
	work := func() uint64 {
		w := m.WorkCount()
		if d.ExtraWork != nil {
			w += d.ExtraWork()
		}
		return w
	}
	done := func() bool {
		return m.Done() && (d.ExtraBusy == nil || !d.ExtraBusy())
	}
	finish := func() {
		if d.FinalSample != nil {
			d.FinalSample()
			return
		}
		m.SampleTelemetry()
	}
	step := func() error {
		m.Step()
		if d.EndCycle != nil {
			d.EndCycle(m.cycle)
		}
		for _, c := range m.Cores {
			if err := c.Err(); err != nil {
				if d.WrapErr != nil {
					return d.WrapErr(c.ID(), err)
				}
				return fmt.Errorf("machine: core %d: %w", c.ID(), err)
			}
		}
		return nil
	}

	ff := m.FastForwardEnabled() && !d.DisableFF
	prev := work()
	var snap StatsSnapshot
	for !done() {
		if m.cycle >= m.cfg.MaxCycles {
			finish()
			return &StallError{Cycles: m.cfg.MaxCycles, Cores: m.snapshotCores()}
		}
		if err := step(); err != nil {
			return err
		}
		if !ff {
			continue
		}
		w := work()
		if w != prev || m.cycle >= m.cfg.MaxCycles {
			prev = w
			continue
		}
		// Frozen tick observed. Measure the per-cycle statistics delta
		// over one more tick; if that one is frozen too, skip ahead.
		// The probe tick is a full Step and can surface a core error
		// (e.g. input exhaustion on a woken IN) exactly like any other
		// cycle — step checks it, so the error is reported at its true
		// cycle instead of one tick late or, at the MaxCycles boundary,
		// masked by a *StallError.
		m.CaptureStats(&snap)
		if d.CaptureExtra != nil {
			d.CaptureExtra()
		}
		if err := step(); err != nil {
			return err
		}
		if w2 := work(); w2 != w {
			prev = w2
			continue
		}
		target := m.cfg.MaxCycles
		if wake, ok := m.NextWakeCycle(); ok && wake-1 < target {
			// Resume ticking at wake-1 so the next Step lands exactly
			// on the wake cycle.
			target = wake - 1
		}
		if target > m.cycle {
			n := target - m.cycle
			m.ReplayIdleDelta(&snap, n)
			if d.ReplayExtra != nil {
				d.ReplayExtra(n)
			}
			m.SkipTo(target)
		}
		prev = w
	}
	finish()
	return nil
}
