package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/workload"
)

// The golden digests pin record output across commits. Every other
// byte-identity test compares two execution modes of one build; these
// compare a build with the committed digest of an earlier one, so a
// simulator refactor that must not change behaviour proves it did not.
// A digest covers the encoded log, the cycle count, the final memory
// image and the cpu, coherence and recorder statistics.
//
// Regenerate only for a change meant to alter recorded behaviour:
//
//	go test ./internal/core -run TestGoldenDigests -golden.update
var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/golden_digests.txt from this build")

const goldenPath = "testdata/golden_digests.txt"

type goldenCase struct {
	name  string
	short bool // part of the -short subset
	mcfg  machine.Config
	rcfg  Config
	w     Workload
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, short bool, cores int, proto coherence.Protocol, model cpu.MemModel, ord OrderingScheme, w workload.Workload) {
		mcfg := machineConfig(cores, proto)
		mcfg.CPU.Model = model
		rcfg := DefaultConfig(Opt)
		rcfg.Ordering = ord
		cases = append(cases, goldenCase{name, short, mcfg, rcfg,
			Workload{Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem}})
	}
	snoopyRC := func(name string, short bool, cores int, w workload.Workload) {
		add(name, short, cores, coherence.Snoopy, cpu.RC, OrderingQuickRec, w)
	}
	for _, k := range workload.Kernels() {
		short := k.Name == "fft" || k.Name == "radix" || k.Name == "barnes"
		snoopyRC(k.Name+"/4c", short, 4, k.Build(4, 1))
	}
	snoopyRC("fft/32c", false, 32, workload.FFT(32, 1))
	snoopyRC("ocean/32c", false, 32, workload.Ocean(32, 1))
	add("radix/8c-directory", true, 8, coherence.Directory, cpu.RC, OrderingQuickRec, workload.Radix(8, 1))
	add("water/8c-directory", false, 8, coherence.Directory, cpu.RC, OrderingQuickRec, workload.Water(8, 1))
	add("fft/4c-tso", true, 4, coherence.Snoopy, cpu.TSO, OrderingQuickRec, workload.FFT(4, 1))
	add("fft/4c-sc", true, 4, coherence.Snoopy, cpu.SC, OrderingQuickRec, workload.FFT(4, 1))
	add("barnes/4c-lamport", true, 4, coherence.Snoopy, cpu.RC, OrderingLamport, workload.Barnes(4, 1))
	for _, l := range workload.AllLitmus() {
		snoopyRC("litmus/"+l.Name, true, len(l.Progs),
			workload.Workload{Name: l.Name, Progs: l.Progs, Inputs: l.Inputs, InitMem: l.InitMem})
	}
	return cases
}

// goldenDigest is the SHA-256 over everything a record produces.
func goldenDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	h.Write(encodeLog(t, res.Log))
	fmt.Fprintf(h, "\ncycles %d\n", res.Cycles)
	addrs := make([]uint64, 0, len(res.FinalMemory))
	for a := range res.FinalMemory {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(h, "mem %#x %d\n", a, res.FinalMemory[a])
	}
	fmt.Fprintf(h, "cpu %+v\nmem %+v\nrec %+v\n", res.CoreStats, res.MemStats, res.RecStats)
	return hex.EncodeToString(h.Sum(nil))
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden digests: %v (generate with -golden.update)", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden digests: malformed line %q", line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDigests records every case and compares its digest with
// the committed one. -short runs the subset marked short.
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# name sha256(encoded log, cycles, final memory, cpu/coherence/recorder stats)\n")
		for _, tc := range cases {
			res, err := Record(tc.mcfg, tc.rcfg, tc.w)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			fmt.Fprintf(&b, "%s %s\n", tc.name, goldenDigest(t, res))
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d digests, the test defines %d cases", len(want), len(cases))
	}
	for _, tc := range cases {
		if testing.Short() && !tc.short {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no committed digest for %s", tc.name)
			}
			res, err := Record(tc.mcfg, tc.rcfg, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenDigest(t, res); got != w {
				t.Errorf("record output changed:\n got  %s\n want %s", got, w)
			}
		})
	}
}
