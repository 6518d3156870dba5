package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation share Op; Parent is the ID
// of the span that caused this one (0 for an operation's root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// op allocates an operation ID.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its ID.
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Op: op, Name: name, Layer: layer,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns each layer's self time in milliseconds: the sum
// over its spans of the span's duration minus the part of it that the
// span's children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.EndNS - s.StartNS - covered(s, children[s.ID])
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		a := max(x[0], end)
		if x[1] > a {
			total += x[1] - a
		}
		end = max(end, x[1])
	}
	return total
}

// traceFile is what a traced run writes next to its result.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	Profile     profileTable       `json:"profile"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
