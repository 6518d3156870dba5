package main

import (
	"bytes"
	"fmt"
	"time"

	"relaxreplay"
	"relaxreplay/internal/coherence"
	"relaxreplay/internal/core"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/machine"
)

// The probes call the layers under the public API directly, once per
// kernel, to read the statistics structs the public API does not
// return and to time the machine without its recorder.

// internalConfigs mirrors what relaxreplay.Record derives from the
// public Config for the settings this benchmark uses. The probes check
// that a recording made with them matches the public run's cycles and
// log bits exactly, so a drift here fails loudly.
func internalConfigs(c relaxreplay.Config) (machine.Config, core.Config) {
	m := machine.DefaultConfig(c.Cores)
	if c.Protocol == relaxreplay.Directory {
		m.Mem.Protocol = coherence.Directory
	}
	if c.MaxCycles > 0 {
		m.MaxCycles = c.MaxCycles
	}
	v := core.Base
	if c.Variant == relaxreplay.Opt {
		v = core.Opt
	}
	r := core.DefaultConfig(v)
	r.MaxIntervalInstrs = c.MaxIntervalInstrs
	return m, r
}

type probeTotals struct {
	machineMS     []float64
	machineTime   time.Duration
	machineCycles uint64
	overheadMS    []float64

	cycles, ffSkipped uint64
	instrs            uint64
	cpu               cpu.Stats
	mem               coherence.Stats
	rec               core.Stats

	encodeMS        []float64
	encodeTime      time.Duration
	encodeIntervals int
	encodeV2Bytes   int
	v3Bytes         int
}

// probe runs, for each kernel, the machine with the recorder detached,
// a recording session through the internal API, and the v3 encoder.
// publicMS holds the public Record latencies per kernel, for the
// recorder's overhead over the bare machine.
func (b *bench) probe(publicMS map[string]durations) (*probeTotals, error) {
	mcfg, rcfg := internalConfigs(b.spec.cfg)
	p := &probeTotals{}
	for _, name := range b.spec.kernels {
		k := b.kernels[name]
		want := b.first[name]
		if want == nil {
			return nil, fmt.Errorf("no public recording of %s to compare with", name)
		}

		op := b.tr.op()
		t0, c0 := time.Now(), b.clock.now()
		m := machine.New(mcfg, k.w.Progs, nil)
		m.InitMemory(k.w.InitMem)
		for i, in := range k.w.Inputs {
			m.SetInputs(i, in)
		}
		err := m.Run()
		t1, c1 := time.Now(), b.clock.now()
		b.tr.add(op, 0, "machine.Run "+name, "machine", t0, t1)
		if err == nil {
			err = k.check(m.FinalMemory())
		}
		if b.tally.op("machine-only "+name, err) {
			p.machineMS = append(p.machineMS, ms(c1-c0))
			p.machineTime += c1 - c0
			p.machineCycles += m.Cycle()
			p.overheadMS = append(p.overheadMS, median(publicMS[name])-ms(c1-c0))
		}

		op = b.tr.op()
		t0 = time.Now()
		res, ff, err := session(mcfg, rcfg, k.w)
		b.tr.add(op, 0, "core.Session.Run "+name, "core", t0, time.Now())
		if err == nil && (res.Cycles != want.cycles || res.Log.SizeBits() != want.bits) {
			err = fmt.Errorf("internal run gives %d cycles and %d log bits, public run %d and %d",
				res.Cycles, res.Log.SizeBits(), want.cycles, want.bits)
		}
		if b.tally.op("internal recording "+name, err) {
			p.add(res, ff)
		}

		it := b.items[name]
		var enc durations
		for i := 0; i < 3; i++ {
			var buf bytes.Buffer
			op = b.tr.op()
			t0, c0 := time.Now(), b.clock.now()
			err := it.rec.WriteLogV3(&buf)
			t1, c1 := time.Now(), b.clock.now()
			b.tr.add(op, 0, "WriteLogV3 "+name, "replaylog", t0, t1)
			if err == nil && !bytes.Equal(buf.Bytes(), it.v3) {
				err = fmt.Errorf("v3 encoding differs between calls")
			}
			if b.tally.op("encode "+name, err) {
				enc.add(c1 - c0)
			}
		}
		med := median(enc)
		p.encodeMS = append(p.encodeMS, med)
		p.encodeTime += time.Duration(med * float64(time.Millisecond))
		p.encodeIntervals += it.intervals
		p.encodeV2Bytes += it.v2Len
		p.v3Bytes += len(it.v3)
	}
	return p, nil
}

func session(mcfg machine.Config, rcfg core.Config, w relaxreplay.Workload) (*core.Result, uint64, error) {
	s, err := core.NewSession(mcfg, rcfg, core.Workload{Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem})
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, 0, err
	}
	return res, s.M.FastForwardedCycles(), nil
}

func (p *probeTotals) add(res *core.Result, ff uint64) {
	p.cycles += res.Cycles
	p.ffSkipped += ff
	for _, s := range res.CoreStats {
		p.instrs += s.Retired
		p.cpu.Retired += s.Retired
		p.cpu.SquashedUops += s.SquashedUops
		p.cpu.DispatchStallTRAQ += s.DispatchStallTRAQ
	}
	m := res.MemStats
	p.mem.L1Hits += m.L1Hits
	p.mem.L1Misses += m.L1Misses
	p.mem.Transactions += m.Transactions
	p.mem.MSHRRejects += m.MSHRRejects
	p.mem.InvalidationsSent += m.InvalidationsSent
	p.mem.RingMessages += m.RingMessages
	for _, s := range res.RecStats {
		p.rec.Intervals += s.Intervals
		p.rec.ReorderedLoads += s.ReorderedLoads
		p.rec.ReorderedStores += s.ReorderedStores
		p.rec.ReorderedAtomics += s.ReorderedAtomics
		p.rec.ConflictTerminations += s.ConflictTerminations
		p.rec.OptMoves += s.OptMoves
		p.rec.TRAQOccupancySum += s.TRAQOccupancySum
		p.rec.TRAQSamples += s.TRAQSamples
	}
}

func (p *probeTotals) metrics() map[string]float64 {
	kinstr := float64(p.instrs) / 1000
	perK := func(n uint64) float64 { return ratio(float64(n), kinstr) }
	reordered := p.rec.ReorderedLoads + p.rec.ReorderedStores + p.rec.ReorderedAtomics
	return map[string]float64{
		"machine.run_ms":                     mean(p.machineMS),
		"machine.ns_per_cycle":               ratio(float64(p.machineTime.Nanoseconds()), float64(p.machineCycles)),
		"machine.ff_skip_share":              ratio(float64(p.ffSkipped), float64(p.cycles)),
		"cpu.useful_uop_ratio":               ratio(float64(p.cpu.Retired), float64(p.cpu.Retired+p.cpu.SquashedUops)),
		"cpu.traq_stall_per_kinstr":          perK(p.cpu.DispatchStallTRAQ),
		"coherence.l1_miss_ratio":            ratio(float64(p.mem.L1Misses), float64(p.mem.L1Hits+p.mem.L1Misses)),
		"coherence.transactions_per_kinstr":  perK(p.mem.Transactions),
		"coherence.mshr_rejects_per_kinstr":  perK(p.mem.MSHRRejects),
		"coherence.invalidations_per_kinstr": perK(p.mem.InvalidationsSent),
		"interconnect.ring_msgs_per_kinstr":  perK(p.mem.RingMessages),
		"core.overhead_ms":                   mean(p.overheadMS),
		"core.intervals_per_kinstr":          perK(p.rec.Intervals),
		"core.reordered_per_kinstr":          perK(reordered),
		"core.conflict_term_share":           ratio(float64(p.rec.ConflictTerminations), float64(p.rec.Intervals)),
		"core.opt_moves_per_kinstr":          perK(p.rec.OptMoves),
		"core.traq_avg_occupancy":            ratio(float64(p.rec.TRAQOccupancySum), float64(p.rec.TRAQSamples)),
		"replaylog.encode_ms":                mean(p.encodeMS),
		"replaylog.encode_intervals_per_s":   ratio(float64(p.encodeIntervals), p.encodeTime.Seconds()),
		"replaylog.encode_v2eq_mb_per_s":     ratio(float64(p.encodeV2Bytes)/1e6, p.encodeTime.Seconds()),
		"replaylog.compression_ratio":        ratio(float64(p.v3Bytes), float64(p.encodeV2Bytes)),
	}
}

// metrics returns the service-path layer metrics of traced passes.
func (st *passStats) metrics() map[string]float64 {
	return map[string]float64{
		"replaylog.decode_ms":              median(st.decode),
		"replaylog.patch_ms":               median(st.patch),
		"replaylog.decode_intervals_per_s": ratio(float64(st.decodedIntervals), st.decodeTime.Seconds()),
		"replaylog.decode_v2eq_mb_per_s":   ratio(float64(st.decodedV2Bytes)/1e6, st.decodeTime.Seconds()),
		"rrnet.commit_ms":                  median(st.commit),
		"rrnet.export_ms":                  median(st.export),
		"rrnet.retries":                    float64(st.retries),
		"replay.run_ms":                    median(st.replay),
		"replay.intervals_per_s":           ratio(float64(st.replayedIntervals), st.replayTime.Seconds()),
	}
}
