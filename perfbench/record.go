package main

import (
	"fmt"
	"time"

	"relaxreplay"
)

// recStats aggregates public Record calls.
type recStats struct {
	lat       durations
	cycles    uint64
	perKernel map[string]durations
}

func (st *recStats) add(name string, d time.Duration, rec *relaxreplay.Recording) {
	st.lat.add(d)
	st.cycles += rec.Cycles()
	if st.perKernel == nil {
		st.perKernel = map[string]durations{}
	}
	ms := st.perKernel[name]
	ms.add(d)
	st.perKernel[name] = ms
}

// firstRun is a kernel's first recording in this process. Every later
// recording of the kernel must match it exactly: the simulator is
// deterministic, so a difference is a failure.
type firstRun struct {
	rec            *relaxreplay.Recording
	instrs, cycles uint64
	bits           int
}

// record runs one public Record of k, checks the final memory with
// the kernel's oracle and the counts against the kernel's first run,
// and adds the call's time to st.
func (b *bench) record(k *kernel, st *recStats) {
	op := b.tr.op()
	t0, c0 := time.Now(), b.clock.now()
	rec, err := relaxreplay.Record(b.spec.cfg, k.w)
	t1, c1 := time.Now(), b.clock.now()
	b.tr.add(op, 0, "relaxreplay.Record "+k.name, "record", t0, t1)
	if err == nil {
		err = b.checkRecording(k, rec)
	}
	if !b.tally.op(fmt.Sprintf("record %s", k.name), err) {
		return
	}
	st.add(k.name, c1-c0, rec)
	b.sampleHeap()
}

func (b *bench) checkRecording(k *kernel, rec *relaxreplay.Recording) error {
	if err := k.check(rec.FinalMemory()); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	got := firstRun{rec: rec, instrs: rec.Instructions(), cycles: rec.Cycles(), bits: rec.LogSizeBits()}
	want, ok := b.first[k.name]
	if !ok {
		b.first[k.name] = &got
		return nil
	}
	if got.instrs != want.instrs || got.cycles != want.cycles || got.bits != want.bits {
		return fmt.Errorf("nondeterministic recording: instrs/cycles/bits %d/%d/%d, first run %d/%d/%d",
			got.instrs, got.cycles, got.bits, want.instrs, want.cycles, want.bits)
	}
	return nil
}

// recordRounds records whole rounds of the seeded kernel order: at
// least minRounds, and more until deadline passes.
func (b *bench) recordRounds(minRounds int, deadline time.Time, st *recStats) {
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		for _, name := range b.recOrder.round() {
			b.clock.maybe()
			b.record(b.kernels[name], st)
		}
	}
}
