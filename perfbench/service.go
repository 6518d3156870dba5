package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"relaxreplay"
)

// rotateEvery bounds how many sessions one journal holds before its
// server is restarted on a fresh file. ReadStreamJournal scans the
// whole journal, so without rotation the export step would slow down
// as a run goes on and the result would depend on run length.
const rotateEvery = 16

// logItem is one recorded log ready for the service path, with the
// references a pass checks against.
type logItem struct {
	k         *kernel
	rec       *relaxreplay.Recording
	mem       map[uint64]uint64 // the recording's final memory
	v3        []byte            // local WriteLogV3 bytes
	v2Len     int               // v2 encoding size of the same log
	intervals int
	instrs    uint64
	cycles    uint64

	pin *passPin // fixed by the first pass
}

// passPin is what every pass of one log must reproduce exactly: the
// modeled replay time and the number of wire chunks.
type passPin struct{ userCycles, osCycles, chunks uint64 }

func newLogItem(k *kernel, rec *relaxreplay.Recording) (*logItem, error) {
	var v3, v2 bytes.Buffer
	if err := rec.WriteLogV3(&v3); err != nil {
		return nil, fmt.Errorf("%s: WriteLogV3: %w", k.name, err)
	}
	if err := rec.WriteLog(&v2); err != nil {
		return nil, fmt.Errorf("%s: WriteLog: %w", k.name, err)
	}
	it := &logItem{k: k, rec: rec, mem: rec.FinalMemory(), v3: v3.Bytes(), v2Len: v2.Len(),
		instrs: rec.Instructions(), cycles: rec.Cycles()}
	for _, s := range rec.Log().Streams {
		it.intervals += len(s.Intervals)
	}
	return it, nil
}

// endpoint is the log service: an in-process stream server on
// loopback journaling to a file, and the one client that talks to it.
type endpoint struct {
	dir     string
	gen     int
	journal string
	srv     *relaxreplay.StreamServer
	served  chan error
	client  *relaxreplay.StreamClient
	// sessions counts sessions on the current journal.
	sessions int
}

func startEndpoint(dir string, gen int) (*endpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &endpoint{dir: dir, gen: gen, journal: filepath.Join(dir, fmt.Sprintf("journal-%d", gen))}
	srv, err := relaxreplay.NewStreamServer(relaxreplay.StreamServerOptions{
		Addr: "127.0.0.1:0", JournalPath: e.journal,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("starting stream server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown() // never served; the listen error is the one to report
		return nil, fmt.Errorf("listening: %w", err)
	}
	e.srv = srv
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(ln) }() //rrlint:allow goroleak -- Serve returns at Shutdown, and stop waits on served
	// Wait until Serve owns the listener: a Shutdown that came first
	// would make Serve refuse to start and leave the listener open.
	for srv.Addr() == nil {
		select {
		case err := <-e.served:
			_ = ln.Close() // Serve refused the listener, so it is still ours
			return nil, fmt.Errorf("serving: %w", err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	e.client, err = relaxreplay.NewStreamClient(relaxreplay.StreamClientOptions{
		Addr: ln.Addr().String(), Tenant: "perfbench",
	}, nil)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("stream client: %w", err), e.stop())
	}
	return e, nil
}

// stop shuts the server down, waits for its serve loop to return and
// deletes the journal.
func (e *endpoint) stop() error {
	err := e.srv.Shutdown()
	if serr := <-e.served; err == nil {
		err = serr
	}
	if rerr := os.Remove(e.journal); err == nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}

// rotate replaces the endpoint's server and journal with fresh ones.
func (e *endpoint) rotate() (*endpoint, error) {
	if err := e.stop(); err != nil {
		return nil, err
	}
	return startEndpoint(e.dir, e.gen+1)
}

// passStats aggregates service passes. Times are read on b.clock, a
// CPU clock: one client runs one pass at a time, so the clock charges
// each pass with its client, server and garbage-collector work.
type passStats struct {
	lat, commit, export, decode, patch, replay durations
	decodeTime, replayTime                     time.Duration
	decodedIntervals, decodedV2Bytes           int
	replayedIntervals                          int
	retries, passes                            int
	userCycles, osCycles                       uint64
	cpu                                        time.Duration // the loops' time
}

// summary returns the pass latency's median, tail and tail percentile,
// and the verified passes per CPU second of the loops.
func (st *passStats) summary() (p50, tl, tailPct, rate float64) {
	tl, tailPct = tail(st.lat)
	return median(st.lat), tl, tailPct, float64(st.passes) / st.cpu.Seconds()
}

// pass is one trip of a recorded log through the service: stream it to
// a fresh session and wait for the durable commit, read the journal
// back and export the session, decode, patch and replay. It checks
// that the exported bytes equal the local encoding and that replay
// reproduces the recording's memory and passes the kernel's oracle.
func (b *bench) pass(ep *endpoint, it *logItem, st *passStats) {
	op := b.tr.op()
	b.sessions++
	id := b.sessions
	var t [6]time.Time     // wall clock, for the spans
	var c [6]time.Duration // b.clock, for the statistics
	stamp := func(i int) { t[i], c[i] = time.Now(), b.clock.now() }
	var res relaxreplay.StreamResult
	var rr *relaxreplay.ReplayResult
	err := func() error {
		stamp(0)
		sw, err := ep.client.OpenSession(id)
		if err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		res, err = it.rec.StreamLogV3(sw)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		stamp(1)
		if res.Status != relaxreplay.StreamStatusOK {
			return fmt.Errorf("stream status %d: %s", res.Status, res.Reason)
		}
		view, err := relaxreplay.ReadStreamJournal(ep.journal)
		if err != nil {
			return fmt.Errorf("read journal: %w", err)
		}
		var exported bytes.Buffer
		if err := view.Export(id, &exported); err != nil {
			return err
		}
		stamp(2)
		if !bytes.Equal(exported.Bytes(), it.v3) {
			return fmt.Errorf("exported %d bytes differ from the local %d-byte v3 encoding", exported.Len(), len(it.v3))
		}
		log, err := relaxreplay.ReadLogParallel(bytes.NewReader(exported.Bytes()))
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		stamp(3)
		patched, err := log.Patch()
		if err != nil {
			return fmt.Errorf("patch: %w", err)
		}
		stamp(4)
		rr, err = relaxreplay.ReplayLog(patched, it.k.w)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		stamp(5)
		return it.checkPass(rr, res)
	}()
	ep.sessions++
	if !b.tally.op(fmt.Sprintf("pass %s session %d", it.k.name, id), err) {
		return
	}

	root := b.tr.add(op, 0, "pass "+it.k.name, "bench", t[0], time.Now())
	b.tr.add(op, root, "StreamLogV3+commit", "rrnet", t[0], t[1])
	b.tr.add(op, root, "ReadStreamJournal+Export", "rrnet", t[1], t[2])
	b.tr.add(op, root, "ReadLogParallel", "replaylog", t[2], t[3])
	b.tr.add(op, root, "Log.Patch", "replaylog", t[3], t[4])
	b.tr.add(op, root, "ReplayLog", "replay", t[4], t[5])

	st.passes++
	st.lat.add(c[5] - c[0])
	st.commit.add(c[1] - c[0])
	st.export.add(c[2] - c[1])
	st.decode.add(c[3] - c[2])
	st.patch.add(c[4] - c[3])
	st.replay.add(c[5] - c[4])
	st.decodeTime += c[3] - c[2]
	st.replayTime += c[5] - c[4]
	st.decodedIntervals += it.intervals
	st.decodedV2Bytes += it.v2Len
	st.replayedIntervals += rr.Intervals
	st.retries += res.Retries
	st.userCycles += rr.Timing.UserCycles
	st.osCycles += rr.Timing.OSCycles
	b.sampleHeap()
}

// checkPass compares a replay with the recording and the oracle, and
// pins what is deterministic about a pass: every pass of one log must
// model the same replay cycles and send the same number of chunks.
func (it *logItem) checkPass(rr *relaxreplay.ReplayResult, res relaxreplay.StreamResult) error {
	if err := sameMemory(it.mem, rr.FinalMemory); err != nil {
		return err
	}
	if err := it.k.check(rr.FinalMemory); err != nil {
		return fmt.Errorf("oracle after replay: %w", err)
	}
	got := passPin{userCycles: rr.Timing.UserCycles, osCycles: rr.Timing.OSCycles, chunks: res.Chunks}
	if it.pin == nil {
		it.pin = &got
	} else if *it.pin != got {
		return fmt.Errorf("nondeterministic pass: user/OS cycles and chunks %d/%d/%d, first pass %d/%d/%d",
			got.userCycles, got.osCycles, got.chunks, it.pin.userCycles, it.pin.osCycles, it.pin.chunks)
	}
	return nil
}

// serve runs the closed-loop client over the logs in the seeded order:
// at least minPasses passes, and more until deadline passes. It adds
// the loop's time to st.
func (b *bench) serve(minPasses int, deadline time.Time, st *passStats) error {
	c0 := b.clock.now()
	defer func() { st.cpu += b.clock.now() - c0 }()
	var queue []string
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		if len(queue) == 0 {
			queue = b.svcOrder.round()
		}
		b.clock.maybe()
		b.pass(b.ep, b.items[queue[0]], st)
		queue = queue[1:]
		if b.ep.sessions >= rotateEvery {
			next, err := b.ep.rotate()
			b.ep = next
			if err != nil {
				return fmt.Errorf("rotating journal: %w", err)
			}
		}
	}
	return nil
}

// sameMemory compares two memory images word by word, an absent word
// reading as zero.
func sameMemory(recorded, replayed map[uint64]uint64) error {
	for a, v := range recorded {
		if got := replayed[a]; got != v {
			return fmt.Errorf("replayed memory differs at %#x: %d, recorded %d", a, got, v)
		}
	}
	for a, v := range replayed {
		if want := recorded[a]; want != v {
			return fmt.Errorf("replayed memory differs at %#x: %d, recorded %d", a, v, want)
		}
	}
	return nil
}
