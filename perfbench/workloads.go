package main

import (
	"fmt"
	"math/rand/v2"

	"relaxreplay"
)

// spec is one benchmark workload. Every workload runs both halves of
// the user's path — recording kernels and pushing their logs through
// the log service — but only its primary half gets the timed budget;
// the other half runs a fixed amount of work so that every metric is
// defined on every workload.
type spec struct {
	name    string
	cfg     relaxreplay.Config
	kernels []string
	// service selects the log-service loop as the timed half; otherwise
	// the record loop is timed.
	service bool
}

// The kernel sets split the bundled kernels by sharing pattern (see
// README.md): read-mostly and boundary sharing on the wide snoopy
// machine, locks, atomics and scattered writes on the directory machine
// whose logs the service workload carries.
var (
	sharedKernels    = []string{"ocean", "barnes", "raytrace", "fft", "volrend"}
	contendedKernels = []string{"radix", "water", "water-sp", "cholesky", "radiosity"}
)

func specs() []spec {
	shared := relaxreplay.DefaultConfig()
	shared.Cores = 32

	contended := relaxreplay.DefaultConfig()
	contended.Protocol = relaxreplay.Directory

	return []spec{
		{name: "record-shared-32c", cfg: shared, kernels: sharedKernels},
		{name: "log-service", cfg: contended, kernels: contendedKernels, service: true},
	}
}

func specByName(name string) (spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// order yields the kernel sequence a seed picks: round after round,
// each round a fresh seeded permutation of the workload's kernels. A
// round holds every kernel once, so any whole number of rounds has
// the same mix whatever the seed, and seed-independent metrics
// (bits per kilo-instruction, IPC) do not depend on where a run stops.
type order struct {
	kernels []string
	rng     *rand.Rand
}

// newOrder starts an order; stream separates the independent orders
// one seed drives (the record loop's and the log service's), so the
// length of one loop never shifts the other's sequence.
func newOrder(kernels []string, seed, stream uint64) *order {
	return &order{kernels: kernels, rng: rand.New(rand.NewPCG(seed, stream))}
}

// round returns the next permutation.
func (o *order) round() []string {
	out := make([]string, len(o.kernels))
	for i, p := range o.rng.Perm(len(o.kernels)) {
		out[i] = o.kernels[p]
	}
	return out
}

// kernel is one built workload with its oracle.
type kernel struct {
	name  string
	w     relaxreplay.Workload
	check func(map[uint64]uint64) error
}

func buildKernels(s spec) (map[string]*kernel, error) {
	out := make(map[string]*kernel, len(s.kernels))
	for _, name := range s.kernels {
		w, check, err := relaxreplay.BuildKernel(name, s.cfg.Cores, 1)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		out[name] = &kernel{name: name, w: w, check: check}
	}
	return out, nil
}
