package main

import (
	"fmt"
	"math"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
// BENCHMARK.json lists the same names and units; a test keeps the two
// in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_instrs_per_s", "instr/s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"record_ms.p50", "ms"},
	{"record_ms.tail", "ms"},
	{"log_bits_per_kinstr", "bits/kinstr"},
	{"sim_ipc", "instr/cycle"},
	{"pipeline_ms.p50", "ms"},
	{"pipeline_ms.tail", "ms"},
	{"logs_per_s", "logs/s"},
	{"stored_bytes_per_kinstr", "B/kinstr"},
	{"replay_model_slowdown", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run prints, on every workload.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"machine.run_ms", "ms"},
	{"machine.ns_per_cycle", "ns/cycle"},
	{"machine.ff_skip_share", "ratio"},
	{"machine.self_share", "ratio"},
	{"cpu.self_share", "ratio"},
	{"cpu.useful_uop_ratio", "ratio"},
	{"cpu.traq_stall_per_kinstr", "1/kinstr"},
	{"coherence.self_share", "ratio"},
	{"coherence.l1_miss_ratio", "ratio"},
	{"coherence.transactions_per_kinstr", "1/kinstr"},
	{"coherence.mshr_rejects_per_kinstr", "1/kinstr"},
	{"coherence.invalidations_per_kinstr", "1/kinstr"},
	{"interconnect.self_share", "ratio"},
	{"interconnect.ring_msgs_per_kinstr", "1/kinstr"},
	{"core.overhead_ms", "ms"},
	{"core.self_share", "ratio"},
	{"core.intervals_per_kinstr", "1/kinstr"},
	{"core.reordered_per_kinstr", "1/kinstr"},
	{"core.conflict_term_share", "ratio"},
	{"core.opt_moves_per_kinstr", "1/kinstr"},
	{"core.traq_avg_occupancy", "entries"},
	{"replaylog.encode_ms", "ms"},
	{"replaylog.decode_ms", "ms"},
	{"replaylog.patch_ms", "ms"},
	{"replaylog.encode_intervals_per_s", "intervals/s"},
	{"replaylog.decode_intervals_per_s", "intervals/s"},
	{"replaylog.encode_v2eq_mb_per_s", "MB/s"},
	{"replaylog.decode_v2eq_mb_per_s", "MB/s"},
	{"replaylog.compression_ratio", "ratio"},
	{"replaylog.self_share", "ratio"},
	{"rrnet.commit_ms", "ms"},
	{"rrnet.export_ms", "ms"},
	{"rrnet.chunks_per_session", "count"},
	{"rrnet.retries", "count"},
	{"rrnet.self_share", "ratio"},
	{"replay.run_ms", "ms"},
	{"replay.intervals_per_s", "intervals/s"},
	{"replay.os_cycle_share", "ratio"},
	{"replay.self_share", "ratio"},
	{"runtime.self_share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"runtime.alloc_mb_per_mcycle", "MB/Mcycle"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MiB"},
	{"profile.unattributed_share", "ratio"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.error_rate", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns computed values into the printed metric set. It fails
// when a defined metric is missing, undefined (NaN or infinite), or
// when a value has no definition, so a run never prints a partial or
// unlisted set.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is undefined (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(out) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s has no definition", name)
			}
		}
	}
	return out, nil
}
