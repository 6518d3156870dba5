package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// setupRuns is how many times a run sets up; setup_s is the median.
	setupRuns = 5
	// secondaryShare is how long the other half of a run takes, as a
	// share of --seconds: log-service passes after a record workload's
	// timed loop, records after log-service's timed loop.
	secondaryShare = 0.3
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir holds the run's temporary journals and the trace file.
	outDir string
}

// report is what a run prints: the result line and a context line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info map[string]any
}

type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// op counts one checked operation and reports whether it succeeded.
// A failure is printed to standard error and never dropped.
func (t *tally) op(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

type bench struct {
	opt      options
	spec     spec
	recOrder *order
	svcOrder *order
	tally    tally
	tr       *tracer   // non-nil while a traced section runs
	clock    *refClock // times every operation

	kernels  map[string]*kernel
	first    map[string]*firstRun
	items    map[string]*logItem
	ep       *endpoint
	sessions uint64
	tmp      string
	heapPeak uint64

	setupSecs []float64
	buildMS   []float64
}

// phase is what one loop measured.
type phase struct {
	rec recStats
	svc passStats
}

func run(opt options) (*report, error) {
	s, err := specByName(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b := &bench{
		opt: opt, spec: s,
		recOrder: newOrder(s.kernels, opt.seed, 1),
		svcOrder: newOrder(s.kernels, opt.seed, 2),
		first:    map[string]*firstRun{},
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(opt.outDir, "perfbench-*"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.tmp)
	defer b.stopEndpoint()
	if b.clock, err = newRefClock(); err != nil {
		return nil, err
	}
	defer b.clock.close()

	var tr *tracer
	if opt.trace {
		tr = newTracer(s.name)
		b.tr = tr
	}

	for i := 0; i < setupRuns; i++ {
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	rep := &report{info: map[string]any{
		"workload": s.name, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}}
	var vals map[string]float64
	if !opt.trace {
		wall0, cpu0, steal0 := time.Now(), cpuNow(), stealSeconds()
		prim, err := b.primary(opt.seconds)
		if err != nil {
			return nil, err
		}
		rep.info["timed_wall_s"] = time.Since(wall0).Seconds()
		rep.info["timed_cpu_s"] = (cpuNow() - cpu0).Seconds()
		rep.info["host_steal_s"] = stealSeconds() - steal0
		sec, err := b.secondary(secondaryShare * opt.seconds)
		if err != nil {
			return nil, err
		}
		rec, svc := &prim.rec, &sec.svc
		if s.service {
			rec, svc = &sec.rec, &prim.svc
		}
		if vals, err = b.endToEnd(rec, svc, rep.info); err != nil {
			return nil, err
		}
		rep.Metrics, err = collect(endToEnd, vals)
		if err != nil {
			return nil, err
		}
	} else {
		if vals, err = b.traced(tr, rep.info); err != nil {
			return nil, err
		}
		rep.Metrics, err = collect(perLayer, vals)
		if err != nil {
			return nil, err
		}
	}
	rep.info["host_slowdown"] = b.clock.slowdown()
	rep.info["probe_ms.p50"], rep.info["probes"] = median(b.clock.samples), len(b.clock.samples)
	rep.Attempted, rep.Failed = b.tally.attempted, b.tally.failed
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// setup builds the workload's kernels, warms up, and starts the log
// service; the service workload also records one round of logs and
// encodes them. Only the work, not the teardown of the previous set-up
// or the speed probes, is timed. Set-up comes before the loops' probes
// have set the reference clock's rate, so it is timed on the CPU clock
// and scaled by the whole run's slowdown when the metrics are made.
func (b *bench) setup() error {
	if err := b.stopEndpoint(); err != nil {
		return err
	}
	b.items = nil
	t0, c0, probes0 := time.Now(), cpuNow(), b.clock.spent
	op := b.tr.op()
	ks, err := buildKernels(b.spec)
	if err != nil {
		return err
	}
	t1, c1 := time.Now(), cpuNow()
	b.tr.add(op, 0, "relaxreplay.BuildKernel x"+strconv.Itoa(len(ks)), "workload", t0, t1)
	b.kernels = ks
	var warm recStats
	if b.spec.service {
		b.recordRounds(1, time.Time{}, &warm)
		if err := b.makeItems(); err != nil {
			return err
		}
	} else {
		// One record of the smallest kernel lets the heap grow and
		// lazy runtime set-up finish before the timed loop.
		b.record(ks[b.spec.kernels[len(b.spec.kernels)-1]], &warm)
	}
	if b.ep, err = startEndpoint(filepath.Join(b.tmp, "service"), 0); err != nil {
		return err
	}
	b.buildMS = append(b.buildMS, ms(c1-c0))
	b.setupSecs = append(b.setupSecs, (cpuNow() - c0 - (b.clock.spent - probes0)).Seconds())
	return nil
}

func (b *bench) stopEndpoint() error {
	if b.ep == nil {
		return nil
	}
	err := b.ep.stop()
	b.ep = nil
	return err
}

// makeItems prepares one service log per kernel from its first
// recording.
func (b *bench) makeItems() error {
	b.items = map[string]*logItem{}
	for _, name := range b.spec.kernels {
		fr := b.first[name]
		if fr == nil {
			return fmt.Errorf("no successful recording of %s", name)
		}
		it, err := newLogItem(b.kernels[name], fr.rec)
		if err != nil {
			return err
		}
		b.items[name] = it
	}
	return nil
}

// primary runs the workload's timed loop for the given time.
func (b *bench) primary(seconds float64) (*phase, error) {
	p := &phase{}
	if b.spec.service {
		return p, b.serve(len(b.spec.kernels), deadline(seconds), &p.svc)
	}
	b.recordRounds(1, deadline(seconds), &p.rec)
	return p, nil
}

// secondary runs the other half of a run after the timed loop, for
// the given time: the kernels' logs through the service after a record
// workload, or records after the service workload.
func (b *bench) secondary(seconds float64) (*phase, error) {
	p := &phase{}
	if b.spec.service {
		b.recordRounds(1, deadline(seconds), &p.rec)
		return p, nil
	}
	if err := b.makeItems(); err != nil {
		return nil, err
	}
	return p, b.serve(len(b.spec.kernels), deadline(seconds), &p.svc)
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// detTotals sums the deterministic counts over one log of each kernel.
type detTotals struct {
	instrs, cycles               uint64
	replayUser, replayOS, chunks uint64
	bits, v3Bytes                int
}

func (b *bench) totals() (detTotals, error) {
	var d detTotals
	for _, name := range b.spec.kernels {
		it := b.items[name]
		if it == nil {
			return d, fmt.Errorf("no log of %s", name)
		}
		pin := it.pin
		if pin == nil {
			return d, fmt.Errorf("log of %s was never replayed", name)
		}
		d.instrs += it.instrs
		d.cycles += it.cycles
		d.replayUser += pin.userCycles
		d.replayOS += pin.osCycles
		d.chunks += pin.chunks
		d.bits += b.first[name].bits
		d.v3Bytes += len(it.v3)
	}
	return d, nil
}

func (b *bench) endToEnd(rec *recStats, svc *passStats, info map[string]any) (map[string]float64, error) {
	d, err := b.totals()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	kinstr := float64(d.instrs) / 1000
	recTail, recPct := tail(rec.lat)
	svcP50, svcTail, svcPct, svcRate := svc.summary()
	info["record_samples"], info["record_tail_percentile"] = len(rec.lat), recPct
	info["pipeline_samples"], info["pipeline_tail_percentile"] = len(svc.lat), svcPct
	return map[string]float64{
		"setup_s":                 median(b.setupSecs) / b.clock.slowdown(),
		"sim_instrs_per_s":        float64(d.instrs) / b.typicalRound(rec).Seconds(),
		"sim_cycles_per_s":        float64(d.cycles) / b.typicalRound(rec).Seconds(),
		"record_ms.p50":           median(rec.lat),
		"record_ms.tail":          recTail,
		"log_bits_per_kinstr":     float64(d.bits) / kinstr,
		"sim_ipc":                 float64(d.instrs) / float64(d.cycles),
		"pipeline_ms.p50":         svcP50,
		"pipeline_ms.tail":        svcTail,
		"logs_per_s":              svcRate,
		"stored_bytes_per_kinstr": float64(d.v3Bytes) / kinstr,
		"replay_model_slowdown":   float64(d.replayUser+d.replayOS) / float64(d.cycles),
		"peak_rss_mb":             rss,
	}, nil
}

// typicalRound is the time of one round at each kernel's median
// record time. Throughput over it is robust to a few slow records,
// which a plain total would absorb.
func (b *bench) typicalRound(rec *recStats) time.Duration {
	var ms float64
	for _, name := range b.spec.kernels {
		ms += median(rec.perKernel[name])
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// sampleHeap tracks the live heap's peak during traced sections.
func (b *bench) sampleHeap() {
	if b.tr == nil {
		return
	}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	b.heapPeak = max(b.heapPeak, s[0].Value.Uint64())
}

// traced runs the primary loop twice, untraced and then traced with a
// CPU profile, followed by the secondary half and the layer probes,
// and returns the per-layer metrics.
func (b *bench) traced(tr *tracer, info map[string]any) (map[string]float64, error) {
	half := b.opt.seconds / 2
	b.tr = nil
	plain, err := b.primary(half)
	if err != nil {
		return nil, err
	}

	b.tr = tr
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := b.primary(half)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	sec, err := b.secondary(secondaryShare * b.opt.seconds)
	if err != nil {
		return nil, err
	}
	table, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// The overhead compares the throughput metric of the timed loop:
	// sim_instrs_per_s (per typical round) or logs_per_s.
	svc, publicMS := &sec.svc, plain.rec.perKernel
	overheadPct := 100 * (1 - ratio(b.typicalRound(&plain.rec).Seconds(), b.typicalRound(&traced.rec).Seconds()))
	simCycles := float64(traced.rec.cycles)
	if b.spec.service {
		svc, publicMS = &traced.svc, sec.rec.perKernel
		overheadPct = 100 * (1 - ratio(float64(traced.svc.passes)/traced.svc.cpu.Seconds(),
			float64(plain.svc.passes)/plain.svc.cpu.Seconds()))
		simCycles = float64(traced.svc.userCycles + traced.svc.osCycles)
	}

	pr, err := b.probe(publicMS)
	if err != nil {
		return nil, err
	}
	d, err := b.totals()
	if err != nil {
		return nil, err
	}
	vals := pr.metrics()
	for k, v := range svc.metrics() {
		vals[k] = v
	}
	vals["rrnet.chunks_per_session"] = float64(d.chunks) / float64(len(b.spec.kernels))
	vals["replay.os_cycle_share"] = ratio(float64(d.replayOS), float64(d.replayUser+d.replayOS))
	for _, layer := range []string{"machine", "cpu", "coherence", "interconnect", "core", "replaylog", "rrnet", "replay", "runtime"} {
		vals[layer+".self_share"] = table.share(layer)
	}
	vals["workload.build_ms"] = median(b.buildMS) / b.clock.slowdown()
	vals["profile.unattributed_share"] = ratio(float64(table.Unattributed), float64(table.Samples))
	vals["runtime.gc_share"] = ratio(float64(table.GCSamples), float64(table.Samples))
	vals["runtime.alloc_mb_per_mcycle"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, simCycles/1e6)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["runtime.heap_peak_mb"] = float64(b.heapPeak) / (1 << 20)
	vals["bench.tracing_overhead_pct"] = overheadPct
	vals["bench.error_rate"] = ratio(float64(b.tally.failed), float64(b.tally.attempted))

	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	path := filepath.Join(b.opt.outDir, "perfbench-trace", fmt.Sprintf("%s-seed%d.json", b.spec.name, b.opt.seed))
	if err := writeTrace(path, traceFile{
		Workload: b.spec.name, Seed: b.opt.seed,
		LayerSelfMS: selfTimes(spans), Profile: table, Spans: spans,
	}); err != nil {
		return nil, err
	}
	info["trace_file"] = path
	info["profile_samples"] = table.Samples
	return vals, nil
}

// stealSeconds reads the time the host has taken the machine's CPUs
// away from it (the steal column of /proc/stat), summed over CPUs, or
// -1 where the kernel does not report it. It goes to the context line
// only.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
