package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/workload"
)

// The idle-cycle fast-forward (machine.Run / Session.Run) skips
// stretches in which provably nothing happens. Its correctness
// contract is total invisibility: cycle counts, every statistics
// counter, and the encoded log must be byte-identical to the fully
// ticked run. These tests flip machine.Config.NoFastForward on the
// same workloads and compare everything.

// recordFF records w with or without fast-forward and returns the
// result plus the number of cycles the machine skipped.
func recordFF(t *testing.T, w Workload, cores int, noFF bool) (*Result, uint64) {
	t.Helper()
	mcfg := machineConfig(cores, coherence.Snoopy)
	mcfg.NoFastForward = noFF
	s, err := NewSession(mcfg, DefaultConfig(Opt), w)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return res, s.M.FastForwardedCycles()
}

func encodeLog(t *testing.T, l *replaylog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replaylog.Encode(&buf, l); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestFastForwardInvisible(t *testing.T) {
	var cases []struct {
		name  string
		w     Workload
		cores int
	}
	for _, l := range workload.AllLitmus() {
		cases = append(cases, struct {
			name  string
			w     Workload
			cores int
		}{l.Name, Workload{Name: l.Name, Progs: l.Progs, Inputs: l.Inputs, InitMem: l.InitMem}, len(l.Progs)})
	}
	fft := workload.FFT(4, 1)
	cases = append(cases, struct {
		name  string
		w     Workload
		cores int
	}{"fft", Workload{Name: fft.Name, Progs: fft.Progs, Inputs: fft.Inputs, InitMem: fft.InitMem}, 4})

	var totalSkipped uint64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ticked, skT := recordFF(t, tc.w, tc.cores, true)
			if skT != 0 {
				t.Fatalf("NoFastForward run skipped %d cycles", skT)
			}
			ffed, skipped := recordFF(t, tc.w, tc.cores, false)
			totalSkipped += skipped

			if ticked.Cycles != ffed.Cycles {
				t.Errorf("cycles: ticked %d, fast-forwarded %d", ticked.Cycles, ffed.Cycles)
			}
			if !bytes.Equal(encodeLog(t, ticked.Log), encodeLog(t, ffed.Log)) {
				t.Error("encoded logs differ between ticked and fast-forwarded runs")
			}
			if !reflect.DeepEqual(ticked.CoreStats, ffed.CoreStats) {
				t.Errorf("core stats differ:\nticked: %+v\nffed:   %+v", ticked.CoreStats, ffed.CoreStats)
			}
			if !reflect.DeepEqual(ticked.RecStats, ffed.RecStats) {
				t.Errorf("recorder stats differ:\nticked: %+v\nffed:   %+v", ticked.RecStats, ffed.RecStats)
			}
			if !reflect.DeepEqual(ticked.MemStats, ffed.MemStats) {
				t.Errorf("memory stats differ:\nticked: %+v\nffed:   %+v", ticked.MemStats, ffed.MemStats)
			}
			if !reflect.DeepEqual(ticked.FinalMemory, ffed.FinalMemory) {
				t.Error("final memory differs")
			}
		})
	}
	// The optimization must actually engage somewhere, or this test
	// proves nothing. Memory-latency stalls (150-cycle round trips with
	// every core blocked) guarantee idle stretches in these workloads.
	if totalSkipped == 0 {
		t.Error("fast-forward never skipped a cycle across any workload")
	}
}

// A deadlocked workload must produce the same StallError and the same
// statistics with and without fast-forward: the skip-to-MaxCycles path
// replays the per-cycle stall tallies rather than dropping them.
func TestFastForwardDeadlockEquivalence(t *testing.T) {
	run := func(noFF bool) (*machine.StallError, *Session) {
		mcfg := machineConfig(2, coherence.Snoopy)
		mcfg.MaxCycles = 20_000
		mcfg.NoFastForward = noFF
		s, err := NewSession(mcfg, DefaultConfig(Base), spinlockWorkload(2, 2))
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		// Pre-acquire the lock (0x100) so every core spins on CAS
		// forever: retries with memory-latency gaps between them, so
		// fast-forward repeatedly skips the waiting stretches all the
		// way to the cycle budget.
		s.M.InitMemory(map[uint64]uint64{0x100: 1})
		_, err = s.Run()
		st, ok := err.(*machine.StallError)
		if !ok {
			t.Fatalf("Run = %v, want *machine.StallError", err)
		}
		return st, s
	}
	ticked, st := run(true)
	ffed, sf := run(false)
	if ticked.Cycles != ffed.Cycles {
		t.Errorf("stall cycles: ticked %d, fast-forwarded %d", ticked.Cycles, ffed.Cycles)
	}
	for i := range st.M.Cores {
		if st.M.Cores[i].Stats != sf.M.Cores[i].Stats {
			t.Errorf("core %d stats differ at stall:\nticked: %+v\nffed:   %+v",
				i, st.M.Cores[i].Stats, sf.M.Cores[i].Stats)
		}
	}
}

// TestProbeTickErrorSessionLoop is the session-level half of the
// probe-tick regression (see machine.TestProbeTickErrorNotSwallowed):
// a core error landing on the fast-forward probe tick must surface
// from Session.Run at its true cycle and must not be masked as a
// *StallError when it coincides with the MaxCycles boundary.
func TestProbeTickErrorSessionLoop(t *testing.T) {
	b := isa.NewBuilder("probe-err")
	b.Li(isa.R(3), 7)
	b.Mul(isa.R(3), isa.R(3), isa.R(3))
	b.In(isa.R(4))
	b.Halt()
	prog := b.MustBuild()
	w := Workload{Name: "probe-err", Progs: []isa.Program{prog}}

	record := func(lat, maxCycles uint64, noFF bool) (uint64, error) {
		mcfg := machineConfig(1, coherence.Snoopy)
		mcfg.CPU.MulLat = lat
		mcfg.NoFastForward = noFF
		if maxCycles != 0 {
			mcfg.MaxCycles = maxCycles
		}
		s, err := NewSession(mcfg, DefaultConfig(Opt), w)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		return s.M.Cycle(), err
	}

	for lat := uint64(1); lat <= 30; lat++ {
		tickedCycle, errTicked := record(lat, 0, true)
		if !errors.Is(errTicked, isa.ErrOutOfInput) {
			t.Fatalf("lat=%d: ticked: got %v, want ErrOutOfInput", lat, errTicked)
		}
		ffCycle, errFF := record(lat, 0, false)
		if !errors.Is(errFF, isa.ErrOutOfInput) {
			t.Errorf("lat=%d: fast-forwarded: got %v, want ErrOutOfInput", lat, errFF)
		}
		if ffCycle != tickedCycle {
			t.Errorf("lat=%d: error at cycle %d fast-forwarded, %d ticked", lat, ffCycle, tickedCycle)
		}
		_, errPinned := record(lat, tickedCycle, false)
		var stall *machine.StallError
		if errors.As(errPinned, &stall) {
			t.Errorf("lat=%d: core error at the MaxCycles boundary masked as %v", lat, errPinned)
		} else if !errors.Is(errPinned, isa.ErrOutOfInput) {
			t.Errorf("lat=%d: pinned: got %v, want ErrOutOfInput", lat, errPinned)
		}
	}
}
