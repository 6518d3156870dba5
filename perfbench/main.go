// Command perfbench is the repository's benchmark: it records bundled
// kernels on the simulated multicore and pushes their logs through the
// log service, checks every output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line. See
// README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload record-shared-32c --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed for the kernel order")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed loop")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that prints per-layer metrics")
	fs.StringVar(&opt.outDir, "out", ".bench_build", "directory for temporary journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1

	rep, err := run(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, line)
	return 0
}
