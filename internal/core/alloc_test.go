package core

import (
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/workload"
)

// recordAllocBound caps the heap allocations of one 32-core fft record
// at scale 1, set-up included. It measures 12,642: set-up, directory
// entries, grant messages and PutM writebacks. The cpu pipeline and the
// recorder allocate nothing per instruction, and the L1 arrays, MSHR
// slots, grant events and L2 LRU nothing per transaction. The bound
// leaves about 10% for incidental set-up changes, not for a
// per-instruction allocation (the record retires ≈478k instructions)
// or a second per-transaction one (≈8.8k transactions) to creep back.
const recordAllocBound = 14_000

func TestRecordAllocationBound(t *testing.T) {
	fft := workload.FFT(32, 1)
	w := Workload{Name: fft.Name, Progs: fft.Progs, Inputs: fft.Inputs, InitMem: fft.InitMem}
	mcfg := machineConfig(32, coherence.Snoopy)
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		_, err = Record(mcfg, DefaultConfig(Opt), w)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("32-core fft record: %.0f allocations", allocs)
	if allocs > recordAllocBound {
		t.Fatalf("32-core fft record allocates %.0f objects, bound %d", allocs, recordAllocBound)
	}
}
