package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestOrderIsSeeded(t *testing.T) {
	rounds := func(seed uint64) [][]string {
		o := newOrder(contendedKernels, seed, 1)
		var out [][]string
		for i := 0; i < 4; i++ {
			r := o.round()
			got := slices.Clone(r)
			slices.Sort(got)
			want := slices.Clone(contendedKernels)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d = %v, not a permutation of %v", seed, i, r, contendedKernels)
			}
			out = append(out, r)
		}
		return out
	}
	a, b, c := rounds(7), rounds(7), rounds(8)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 gave %v then %v in round %d", a[i], b[i], i)
		}
	}
	same := true
	for i := range a {
		same = same && slices.Equal(a[i], c[i])
	}
	if same {
		t.Fatalf("seeds 7 and 8 gave the same sequence %v", a)
	}
	// The record loop and the service draw from separate streams.
	if slices.Equal(newOrder(sharedKernels, 7, 1).round(), newOrder(sharedKernels, 7, 2).round()) &&
		slices.Equal(newOrder(sharedKernels, 7, 1).round(), newOrder(sharedKernels, 8, 2).round()) {
		t.Fatal("record and service orders coincide")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON keeps the metric tables in this
// package and the root BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(listed))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: %s listed twice", kind, d.name)
			}
			seen[d.name] = true
			if i < len(listed) && (listed[i].Name != d.name || listed[i].Unit != d.unit) {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs() {
		specNames = append(specNames, s.name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v here, %v in BENCHMARK.json", specNames, names)
	}
}

// deterministicEndToEnd are the end-to-end metrics that do not depend
// on host time or on the seed.
var deterministicEndToEnd = []string{
	"log_bits_per_kinstr", "sim_ipc", "stored_bytes_per_kinstr", "replay_model_slowdown",
}

// deterministicLayer are the per-layer counts and ratios of counts.
var deterministicLayer = []string{
	"machine.ff_skip_share",
	"cpu.useful_uop_ratio", "cpu.traq_stall_per_kinstr",
	"coherence.l1_miss_ratio", "coherence.transactions_per_kinstr",
	"coherence.mshr_rejects_per_kinstr", "coherence.invalidations_per_kinstr",
	"interconnect.ring_msgs_per_kinstr",
	"core.intervals_per_kinstr", "core.reordered_per_kinstr", "core.conflict_term_share",
	"core.opt_moves_per_kinstr", "core.traq_avg_occupancy",
	"replaylog.compression_ratio", "rrnet.chunks_per_session", "rrnet.retries",
	"replay.os_cycle_share",
}

func runOK(t *testing.T, workload string, seed uint64, trace bool) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: seed, seconds: 0.3, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", workload, seed, rep.Correct, rep.Attempted, rep.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Fatalf("%s: metric %s = %+v, want unit %s", workload, d.name, m, d.unit)
		}
	}
	return rep
}

func sameValues(t *testing.T, what string, names []string, a, b *report) {
	t.Helper()
	for _, n := range names {
		if x, y := a.Metrics[n].Value, b.Metrics[n].Value; x != y {
			t.Errorf("%s: %s = %v then %v", what, n, x, y)
		}
	}
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range []string{"record-shared-32c", "log-service"} {
		a, b := runOK(t, w, 1, false), runOK(t, w, 2, false)
		sameValues(t, w, deterministicEndToEnd, a, b)
		for _, m := range endToEnd {
			if v := a.Metrics[m.name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m.name, v)
			}
		}
	}
	a, b := runOK(t, "log-service", 3, true), runOK(t, "log-service", 3, true)
	sameValues(t, "traced log-service", deterministicLayer, a, b)
	if a.Metrics["bench.error_rate"].Value != 0 {
		t.Errorf("traced run error rate %v", a.Metrics["bench.error_rate"].Value)
	}
}

func TestTailAndMedian(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if m := median(xs); m != 20.5 {
		t.Errorf("median = %v, want 20.5", m)
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Errorf("tail = %v at p%v, want 30 at p75", v, p)
	}
	for i := 41; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 950 || p != 95 {
		t.Errorf("tail of 1000 = %v at p%v, want 950 at p95", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("short tail = %v at p%v, want the maximum", v, p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is defined")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "rrnet", StartNS: 0, EndNS: 40},
		{ID: 3, Parent: 1, Layer: "replay", StartNS: 30, EndNS: 90}, // overlaps its sibling
		{ID: 4, Parent: 3, Layer: "replaylog", StartNS: 50, EndNS: 60},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 10e-6, "rrnet": 40e-6, "replay": 50e-6, "replaylog": 10e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"relaxreplay/internal/cpu.(*Core).Tick":        "relaxreplay/internal/cpu",
		"runtime.mallocgc":                             "runtime",
		"compress/flate.(*compressor).deflate":         "compress/flate",
		"slices.SortFunc[go.shape.[]relaxreplay/x.T]":  "slices",
		"relaxreplay/internal/core.(*Recorder).Tick.1": "relaxreplay/internal/core",
		"gcWriteBarrier2":                              "runtime",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestAttributeRealProfile decodes a profile written by runtime/pprof.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	table, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if table.Samples == 0 {
		t.Fatal("no samples decoded")
	}
	sum := table.Unattributed
	for _, n := range table.ByLayer {
		sum += n
	}
	if sum != table.Samples {
		t.Errorf("layers and remainder hold %d samples, profile %d", sum, table.Samples)
	}
	// The leaf may be runtime code (race instrumentation, the clock), so
	// look for the spinning function anywhere on the stacks.
	p, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range p.frames(s.locs) {
			found = found || strings.HasSuffix(f, ".spin")
		}
	}
	if !found {
		t.Errorf("no stack holds the spinning function: %+v", table)
	}
}

func TestRefClock(t *testing.T) {
	c, err := newRefClock()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.maybe()
	c.maybe() // within probeEvery of the last probe: no probe
	if len(c.samples) != 1 || c.slow != c.samples[0]/probeNominalMS || c.spent <= 0 {
		t.Fatalf("probes %v, slowdown %v, spent %v", c.samples, c.slow, c.spent)
	}
	// The clock runs at the CPU clock's rate over the slowdown.
	r0, c0 := c.now(), cpuNow()
	spin(50 * time.Millisecond)
	r1, c1 := c.now(), cpuNow()
	if got, want := float64(r1-r0), float64(c1-c0)/c.slow; math.Abs(got-want) > 0.02*want {
		t.Errorf("clock advanced %v for %v of CPU at slowdown %v", r1-r0, c1-c0, c.slow)
	}
	// It stands still while a probe runs.
	before := c.now()
	c.probe()
	if d := c.now() - before; d > time.Millisecond {
		t.Errorf("clock advanced %v during a probe", d)
	}
}
