package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID): the
// CPU time all of the process's threads have used, garbage collector
// included. Every host time the benchmark reports is a difference of
// two readings. On a virtual machine whose kernel accounts steal time,
// the clock does not advance while the host runs someone else on the
// benchmark's CPUs, which wall time would charge to the program.
func cpuNow() time.Duration { return clockNow(2) }

// threadCPUNow reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUNow() time.Duration { return clockNow(3) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// durations collects per-operation latencies in milliseconds.
type durations []float64

func (d *durations) add(t time.Duration) { *d = append(*d, ms(t)) }

func ms(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the 95th percentile, or, with fewer than 200 samples,
// the highest percentile that still has ten samples beyond it (the
// eleventh-largest sample), and which percentile that is. Fewer than
// ten samples beyond a tail would make it one slow sample; a higher
// percentile than p95 over thousands of samples would make it a
// handful of them. With fewer than eleven samples it returns the
// maximum and 100, so a short run reports its worst case rather than
// nothing.
func tail(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n < 11 {
		return s[n-1], 100
	}
	beyond := max(10, n/20)
	return s[n-1-beyond], 100 * float64(n-beyond) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
