package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's own speed drifts: on a shared virtual machine the CPU time
// of one record of the same kernel moves by a quarter within minutes,
// as other tenants load the physical cores and caches the machine
// shares. So the benchmark times its operations on a clock of its own,
// refClock: the process's CPU clock run at the speed the host would
// have if it were the reference host. Between operations, whenever
// probeEvery has passed, it times a fixed probe — random reads and
// writes over a buffer larger than the private caches, no allocation,
// no call into the program — and sets the clock's rate from the recent
// probes. A change to the program moves the reference-host times as
// much as the raw CPU times.
const (
	// probeEvery is how often the loops stop for a probe.
	probeEvery = 250 * time.Millisecond
	// probeIters sizes one probe.
	probeIters = 100_000
	// probeWindow is how many of the latest probes set the rate.
	probeWindow = 15
	// probeNominalMS is the probe's median CPU time on the host the
	// benchmark was tuned on (2 vCPUs of an Intel Xeon, Go 1.24) in a
	// quiet period. It fixes the reference host.
	probeNominalMS = 2.5
)

var probeSink uint64

type refClock struct {
	// buf is the probe's 4 MiB buffer. It is mapped outside the Go
	// heap, so that it does not change when the program's garbage
	// collector runs.
	buf     []uint64
	samples []float64     // thread CPU time of each probe, ms
	last    time.Time     // wall time of the latest probe
	spent   time.Duration // process CPU time spent probing

	// The clock reads ref plus the CPU time since base divided by slow,
	// the host's slowdown against the reference host.
	ref, base time.Duration
	slow      float64
}

// newRefClock maps the probe buffer and faults it in. Its rate is 1
// until the first probe: the loops probe before their first operation.
// Probing here, back to back, would find the buffer in the caches,
// where later probes, each after an operation, do not.
func newRefClock() (*refClock, error) {
	mem, err := syscall.Mmap(-1, 0, 4<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the probe buffer: %w", err)
	}
	for i := range mem {
		mem[i] = 1
	}
	c := &refClock{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8), slow: 1, base: cpuNow()}
	return c, nil
}

func (c *refClock) close() error {
	buf := c.buf
	c.buf = nil
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(buf)*8))
}

// now reads the clock.
func (c *refClock) now() time.Duration {
	return c.ref + time.Duration(float64(cpuNow()-c.base)/c.slow)
}

// maybe probes when probeEvery has passed since the last probe.
func (c *refClock) maybe() {
	if time.Since(c.last) >= probeEvery {
		c.probe()
	}
}

// probe times one pass of the probe loop on its thread's CPU clock, so
// garbage-collector work running meanwhile on another thread is not
// counted, and sets the clock's rate. The clock stands still during
// the probe.
func (c *refClock) probe() {
	c.ref = c.now()
	p0 := cpuNow()
	runtime.LockOSThread()
	t0 := threadCPUNow()
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(c.buf)-1)
		if c.buf[j]&1 == 0 {
			acc += c.buf[j]
		} else {
			acc ^= x
		}
		c.buf[j] = acc + x
	}
	t1 := threadCPUNow()
	runtime.UnlockOSThread()
	probeSink = acc
	c.samples = append(c.samples, ms(t1-t0))
	c.slow = median(c.samples[max(0, len(c.samples)-probeWindow):]) / probeNominalMS
	c.base = cpuNow()
	c.spent += c.base - p0
	c.last = time.Now()
}

// slowdown is the run's median probe time over the nominal one.
func (c *refClock) slowdown() float64 { return median(c.samples) / probeNominalMS }
