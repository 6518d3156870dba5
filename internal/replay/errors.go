package replay

import (
	"fmt"
	"strings"

	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// Re-exported decode sentinels, so one package's errors classify the
// whole record → decode → replay pipeline with errors.Is.
var (
	ErrCorruptFrame = replaylog.ErrCorruptFrame
	ErrTruncated    = replaylog.ErrTruncated
)

// ErrDiverged reports that replay stopped matching the recorded
// execution, localized to one interval of one core: the log said one
// thing (a load here, a store there, N more instructions) and the
// re-executed program did another. Under Config.AllowPartial the same
// condition is recorded as a Degradation instead of returned.
type ErrDiverged struct {
	Core     int
	Interval int    // index within the core's stream; -1 for the end-of-run completeness check
	Seq      uint64 // recorded interval sequence number
	Cause    error
}

func (e *ErrDiverged) Error() string {
	if e.Interval < 0 {
		// End-of-run completeness check: there is no interval (or seq)
		// to point at — the core ran out of recorded intervals first,
		// so say that instead of printing a meaningless "interval -1".
		return fmt.Sprintf("replay incomplete: core %d ran out of recorded intervals before HALT: %v", e.Core, e.Cause)
	}
	return fmt.Sprintf("replay diverged: core %d interval %d (seq %d): %v", e.Core, e.Interval, e.Seq, e.Cause)
}

// EndOfLog reports whether this divergence is the end-of-run
// completeness check (the log ended before the core reached HALT)
// rather than a mismatch inside a specific interval.
func (e *ErrDiverged) EndOfLog() bool { return e.Interval < 0 }

func (e *ErrDiverged) Unwrap() error { return e.Cause }

// ErrStreamCore reports a log whose interval streams do not map one
// to one onto its cores: a stream names a core outside [0, Cores), or
// a core an earlier stream already claimed. A damaged log can decode
// that way; New rejects it rather than run one core's program against
// another core's intervals. A core with no stream at all is not an
// error here: it ends the run short of HALT.
type ErrStreamCore struct {
	Stream    int // position in Log.Streams
	Core      int // the core the stream names
	Cores     int // the log's core count
	Duplicate bool
}

func (e *ErrStreamCore) Error() string {
	if e.Duplicate {
		return fmt.Sprintf("replay: stream %d repeats core %d", e.Stream, e.Core)
	}
	return fmt.Sprintf("replay: stream %d names core %d of a %d-core log", e.Stream, e.Core, e.Cores)
}

// Degradation records one core's divergence in a partial replay: the
// core was abandoned at this interval and the run carried on without
// it.
type Degradation struct {
	Core     int
	Interval int // index within the core's stream; -1 for end-of-run incompleteness
	Seq      uint64
	Cause    error
}

func (d Degradation) String() string {
	if d.Interval < 0 {
		return fmt.Sprintf("core %d: recorded intervals ended before HALT: %v", d.Core, d.Cause)
	}
	return fmt.Sprintf("core %d interval %d (seq %d): %v", d.Core, d.Interval, d.Seq, d.Cause)
}

// EndOfLog reports whether the degradation is the end-of-run
// completeness check rather than an in-interval mismatch.
func (d Degradation) EndOfLog() bool { return d.Interval < 0 }

// ErrStalled reports that the replay watchdog fired: the scheduler
// stopped making progress toward HALT within its step budget (a
// corrupt log can demand effectively unbounded work — e.g. a block
// size with a flipped high bit). The report says where every core was
// when the watchdog fired.
type ErrStalled struct {
	Report *StallReport
}

func (e *ErrStalled) Error() string {
	return fmt.Sprintf("replay stalled: watchdog fired after %d of %d budgeted steps at core %d interval %d",
		e.Report.Steps, e.Report.Budget, e.Report.Core, e.Report.Interval)
}

// StallReport is the structured state dump produced when the watchdog
// fires, including a snapshot of the telemetry registry (every
// replay.* counter) at the moment of the stall.
type StallReport struct {
	Steps    uint64 // steps consumed when the watchdog fired
	Budget   uint64 // the budget that was exceeded
	Core     int    // interval being replayed when it fired
	Interval int
	Seq      uint64
	Done     []int  // intervals completed per core
	Halted   []bool // which cores had reached HALT
	Metrics  []telemetry.MetricSnapshot
}

func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay stall report: %d steps (budget %d), stuck at core %d interval %d (seq %d)\n",
		r.Steps, r.Budget, r.Core, r.Interval, r.Seq)
	for c, n := range r.Done {
		state := "running"
		if r.Halted[c] {
			state = "halted"
		}
		fmt.Fprintf(&b, "  core %d: %d interval(s) replayed, %s\n", c, n, state)
	}
	for _, m := range r.Metrics {
		if m.Type == "counter" {
			fmt.Fprintf(&b, "  %s = %d\n", m.Name, m.Value)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
