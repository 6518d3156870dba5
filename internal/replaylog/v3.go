package replaylog

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
)

// Format v3 encoder and decoder (see format.go for the wire layout).
// v3 trades the v2 one-interval-per-frame layout for delta/varint
// compressed group frames plus a seekable index footer: smaller files,
// O(log n) interval seeks via OpenIndexed, and a per-core decode that
// parallelizes. Encode keeps writing v2 by default — v3 is opt-in via
// EncodeV3 so byte-identical determinism comparisons against existing
// logs stay valid.

// DefaultGroupSize is the number of intervals per v3 group frame when
// V3Options.GroupSize is zero. The group is the unit of loss under
// corruption and the unit of work for an indexed seek, so the default
// balances compression context against salvage granularity.
const DefaultGroupSize = 64

// flagFlate marks a group frame whose body went through the flate
// stage. Remaining flag bits are reserved and must be zero.
const flagFlate = 1 << 0

// V3Options configures EncodeV3With. The zero value is the default
// encoding: DefaultGroupSize intervals per group, flate enabled.
type V3Options struct {
	// GroupSize is the number of consecutive intervals per group
	// frame; 0 means DefaultGroupSize. Values above MaxGroupIntervals
	// are clamped.
	GroupSize int
	// NoCompress disables the per-frame flate stage; bodies are
	// written delta/varint-encoded but raw. Useful when the caller
	// compresses at a higher layer or wants cheaper encodes.
	NoCompress bool
}

// ErrUnordered reports a log that v3 cannot represent: group delta
// encoding requires each core's intervals to have strictly increasing
// Seq and non-decreasing Timestamp (which Validate already demands of
// well-formed logs).
var ErrUnordered = errors.New("replaylog: v3 requires per-core ordered intervals")

// errV3EntryType is pre-declared so the hotpath encoder can fail
// without calling fmt.
var errV3EntryType = errors.New("replaylog: cannot encode entry type in v3 group")

// uvarint appends an unsigned varint.
func (p *payload) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	p.Write(b[:n])
}

// svarint appends a zigzag-encoded signed varint.
func (p *payload) svarint(v int64) {
	p.uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// EncodeV3 writes the log to w in format v3 with default options.
func EncodeV3(w io.Writer, l *Log) error { return EncodeV3With(w, l, V3Options{}) }

// EncodeV3With writes the log to w in format v3. The output is
// deterministic: the same log and options always produce the same
// bytes. Returns ErrUnordered if any core's intervals are not
// strictly increasing in Seq or decrease in Timestamp, and
// ErrOversizeFrame under the same count clamps as Encode.
func EncodeV3With(w io.Writer, l *Log, opts V3Options) error {
	if err := checkEncodeCounts(l); err != nil {
		return err
	}
	for si := range l.Streams {
		s := &l.Streams[si]
		for i := 1; i < len(s.Intervals); i++ {
			if s.Intervals[i].Seq <= s.Intervals[i-1].Seq {
				return fmt.Errorf("%w: core %d seq %d after %d", ErrUnordered, s.Core, s.Intervals[i].Seq, s.Intervals[i-1].Seq)
			}
			if s.Intervals[i].Timestamp < s.Intervals[i-1].Timestamp {
				return fmt.Errorf("%w: core %d timestamp %d after %d", ErrUnordered, s.Core, s.Intervals[i].Timestamp, s.Intervals[i-1].Timestamp)
			}
		}
	}
	gs := opts.GroupSize
	if gs <= 0 {
		gs = DefaultGroupSize
	}
	if gs > MaxGroupIntervals {
		gs = MaxGroupIntervals
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], formatV3)
	if _, err := bw.Write(ver[:]); err != nil {
		return err
	}
	fw := &frameWriter{w: bw}

	var p payload
	patched := uint8(0)
	if l.Patched {
		patched = 1
	}
	p.u32(uint32(l.Cores))
	p.u8(patched)
	p.u32(uint32(len(l.Inputs)))
	p.u16(uint16(len(l.Variant)))
	p.WriteString(l.Variant)
	fw.frame(FrameHeader, p.Bytes())

	for c, in := range l.Inputs {
		p.Reset()
		p.u32(uint32(c))
		p.u32(uint32(len(in)))
		for _, v := range in {
			p.u64(v)
		}
		fw.frame(FrameInputs, p.Bytes())
	}

	enc := newV3Encoder(opts.NoCompress)
	defer enc.release()
	var spans []IndexSpan
	for si := range l.Streams {
		s := &l.Streams[si]
		p.Reset()
		p.u32(uint32(s.Core))
		p.u32(uint32(len(s.Intervals)))
		fw.frame(FrameStream, p.Bytes())
		for i := 0; i < len(s.Intervals); i += gs {
			j := i + gs
			if j > len(s.Intervals) {
				j = len(s.Intervals)
			}
			group := s.Intervals[i:j]
			frame, err := enc.groupFrame(s.Core, group)
			if err != nil {
				return err
			}
			off := preambleLen + fw.off
			fw.frame(FrameIvGroup, frame)
			spans = append(spans, IndexSpan{
				Core:     s.Core,
				FirstSeq: group[0].Seq,
				LastSeq:  group[len(group)-1].Seq,
				Offset:   off,
				Length:   frameOverhead + len(frame),
			})
		}
	}

	// Provenance sideband, when present: after the interval groups so
	// the index spans above are unaffected, before the index so a
	// tail-truncated file loses the advisory frames first.
	if err := encodeProvenanceFrames(fw, &p, l); err != nil {
		return err
	}

	if len(spans) > MaxIndexSpans {
		return fmt.Errorf("%w: %d index spans (limit %d)", ErrOversizeFrame, len(spans), MaxIndexSpans)
	}
	indexOff := preambleLen + fw.off
	p.Reset()
	p.uvarint(uint64(len(spans)))
	for _, sp := range spans {
		p.uvarint(uint64(sp.Core))
		p.uvarint(sp.FirstSeq)
		p.uvarint(sp.LastSeq - sp.FirstSeq)
		p.uvarint(uint64(sp.Offset))
		p.uvarint(uint64(sp.Length))
	}
	fw.frame(FrameIndex, p.Bytes())

	p.Reset()
	p.u32(fw.count)
	p.u64(uint64(indexOff))
	fw.frame(FrameEnd, p.Bytes())
	if fw.err != nil {
		return fw.err
	}
	return bw.Flush()
}

// Wire geometry shared by the encoder, the linear decoder, and the
// indexed reader.
const (
	preambleLen   = 6  // magic + version
	frameOverhead = 13 // sync(4) + type(1) + length(4) + crc(4)
	// endFrameLen is the total size of a v3 end frame: overhead plus
	// the frames u32 and index-offset u64. OpenIndexed reads exactly
	// this many bytes off the file tail.
	endFrameLen = frameOverhead + 12
)

// v3encoder holds the reusable buffers of the group-frame pipeline so
// steady-state encoding allocates nothing per frame.
type v3encoder struct {
	body       payload      // delta/varint group body
	comp       bytes.Buffer // flate output
	frame      payload      // flags | core | body
	fl         *flate.Writer
	noCompress bool
}

// v3encPool recycles encoders across EncodeV3 calls: the flate writer
// alone holds several hundred KiB of window state that would otherwise
// be reallocated per encode.
var v3encPool sync.Pool

func newV3Encoder(noCompress bool) *v3encoder {
	if v, ok := v3encPool.Get().(*v3encoder); ok {
		v.noCompress = noCompress
		return v
	}
	enc := &v3encoder{noCompress: noCompress}
	// DefaultCompression: group frames are written once and read many
	// times; spend encode cycles on ratio.
	enc.fl, _ = flate.NewWriter(&enc.comp, flate.DefaultCompression)
	return enc
}

func (enc *v3encoder) release() { v3encPool.Put(enc) }

// groupFrame builds one FrameIvGroup payload for a core's interval
// run. The returned slice is valid until the next call.
func (enc *v3encoder) groupFrame(core int, group []Interval) ([]byte, error) {
	enc.body.Reset()
	if err := enc.groupBody(group); err != nil {
		return nil, err
	}
	flags := uint8(0)
	body := enc.body.Bytes()
	if !enc.noCompress {
		enc.comp.Reset()
		enc.fl.Reset(&enc.comp)
		if _, err := enc.fl.Write(body); err != nil {
			return nil, err
		}
		if err := enc.fl.Close(); err != nil {
			return nil, err
		}
		// The compressed form must earn its flag: incompressible
		// bodies (tiny groups, high-entropy values) stay raw.
		if enc.comp.Len() < len(body) {
			flags |= flagFlate
			body = enc.comp.Bytes()
		}
	}
	enc.frame.Reset()
	enc.frame.u8(flags)
	enc.frame.uvarint(uint64(core))
	enc.frame.Write(body)
	return enc.frame.Bytes(), nil
}

// groupBody delta/varint-encodes one group of intervals into enc.body.
// This is the encoder's per-interval path, the v3 analogue of the v2
// frame loop.
//
//rrlint:hotpath
func (enc *v3encoder) groupBody(group []Interval) error {
	p := &enc.body
	p.uvarint(uint64(len(group)))
	p.uvarint(group[0].Seq)
	p.uvarint(group[0].Timestamp)
	prevSeq, prevTs := group[0].Seq, group[0].Timestamp
	prevAddr := uint64(0)
	for i := range group {
		iv := &group[i]
		if i > 0 {
			p.uvarint(iv.Seq - prevSeq)
			p.uvarint(iv.Timestamp - prevTs)
			prevSeq, prevTs = iv.Seq, iv.Timestamp
		}
		p.uvarint(uint64(len(iv.Entries)))
		p.uvarint(uint64(len(iv.Preds)))
		for j := range iv.Entries {
			e := &iv.Entries[j]
			p.u8(uint8(e.Type))
			switch e.Type {
			case InorderBlock:
				p.uvarint(uint64(e.Size))
			case ReorderedLoad:
				p.uvarint(e.Value)
			case ReorderedStore, PatchedStore:
				p.svarint(int64(e.Addr - prevAddr))
				prevAddr = e.Addr
				p.uvarint(e.Value)
				p.uvarint(uint64(e.Offset))
			case ReorderedAtomic:
				p.svarint(int64(e.Addr - prevAddr))
				prevAddr = e.Addr
				p.uvarint(e.Value)
				p.uvarint(e.StoreValue)
				p.uvarint(uint64(e.Offset))
				w := uint8(0)
				if e.DidWrite {
					w = 1
				}
				p.u8(w)
			case Dummy:
			default:
				return errV3EntryType
			}
		}
		for j := range iv.Preds {
			p.uvarint(uint64(iv.Preds[j].Core))
			p.uvarint(iv.Preds[j].Seq)
		}
	}
	return nil
}

// groupRef is one CRC-verified group frame awaiting body decode: the
// scan pass reads only the plaintext flags/core prefix, so the
// (possibly compressed) body can be decoded per core in parallel.
type groupRef struct {
	off   int64 // frame sync-word offset in the file (for error reports)
	flags uint8
	body  []byte // subslice of the input; not yet decompressed
}

// v3coreResult is one core's decode output, assembled independently of
// goroutine scheduling so the merge is deterministic.
type v3coreResult struct {
	ivs     []Interval
	errs    []FrameError // capped at maxReportedFrames
	dropped int          // uncapped count behind errs
	dups    int
}

func (r *v3coreResult) drop(fe FrameError) {
	r.dropped++
	if len(r.errs) < maxReportedFrames {
		r.errs = append(r.errs, fe)
	}
}

// decodeV3 scans the framed v3 format. Like decodeV2 it resyncs past
// corruption and drops only what fails its CRC or structural checks;
// group bodies additionally decode per core, fanned out over at most
// `workers` goroutines. The result is identical for every workers
// value: the scan pass is sequential, each core's groups decode in
// file order, and the merge follows first-appearance core order with
// frame errors re-sorted by file offset.
func decodeV3(data []byte, workers int) (*Log, *CorruptionReport, error) {
	rep := &CorruptionReport{Version: 3}
	l := &Log{}
	headerSeen := false
	type streamState struct {
		idx      int // index into l.Streams
		declared int // interval count from the stream frame; -1 unknown
		refs     []groupRef
	}
	streams := map[int]*streamState{}
	inputSeen := map[int]bool{}
	stream := func(core int) *streamState {
		st := streams[core]
		if st == nil {
			st = &streamState{idx: len(l.Streams), declared: -1}
			streams[core] = st
			l.Streams = append(l.Streams, CoreLog{Core: core})
		}
		return st
	}

	pos, encountered, sawEnd := 0, 0, false
	endCount := uint32(0)
	for pos+frameOverhead <= len(data) {
		if !bytes.Equal(data[pos:pos+4], frameSync[:]) {
			pos++
			rep.BytesSkipped++
			continue
		}
		typ := FrameType(data[pos+4])
		length := binary.LittleEndian.Uint32(data[pos+5 : pos+9])
		end := pos + 9 + int(length) + 4
		if typ < FrameHeader || typ > FrameProvenance || length > MaxFrameLen || end > len(data) {
			pos++
			rep.BytesSkipped++
			continue
		}
		body := data[pos+4 : end-4]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[end-4:end]) {
			fe := FrameError{Offset: int64(pos + preambleLen), Type: typ, Core: -1, Reason: "crc mismatch"}
			nameFrame(&fe, typ, data[pos+9:end-4])
			rep.note(fe)
			encountered++
			pos++
			rep.BytesSkipped++
			continue
		}
		encountered++
		br := &byteReader{data: data[pos+9 : end-4]}
		drop := func(reason string) {
			fe := FrameError{Offset: int64(pos + preambleLen), Type: typ, Core: -1, Reason: reason}
			nameFrame(&fe, typ, br.data)
			rep.note(fe)
		}
		switch typ {
		case FrameHeader:
			cores := br.u32()
			patched := br.u8()
			ninputs := br.u32()
			vlen := br.u16()
			switch {
			case br.short:
				drop("short header")
			case cores > MaxCores:
				drop(fmt.Sprintf("core count %d exceeds limit %d", cores, MaxCores))
			case ninputs > MaxCores:
				drop(fmt.Sprintf("input-stream count %d exceeds limit %d", ninputs, MaxCores))
			case vlen > MaxVariantLen || int(vlen) > br.remaining():
				drop(fmt.Sprintf("variant length %d exceeds frame", vlen))
			case headerSeen:
				rep.DupFrames++
			default:
				headerSeen = true
				l.Cores = int(cores)
				l.Patched = patched != 0
				l.Variant = string(br.take(int(vlen)))
				if ninputs > 0 {
					l.Inputs = make([][]uint64, ninputs)
				}
			}
		case FrameInputs:
			core := br.u32()
			count := br.u32()
			switch {
			case br.short:
				drop("short inputs frame")
			case core >= MaxCores:
				drop(fmt.Sprintf("core %d exceeds limit", core))
			case int(count)*8 > br.remaining():
				drop(fmt.Sprintf("input count %d exceeds frame", count))
			case inputSeen[int(core)]:
				rep.DupFrames++
			default:
				inputSeen[int(core)] = true
				for int(core) >= len(l.Inputs) {
					l.Inputs = append(l.Inputs, nil)
				}
				var in []uint64
				for j := uint32(0); j < count; j++ {
					in = append(in, br.u64())
				}
				l.Inputs[core] = in
			}
		case FrameStream:
			core := br.u32()
			nivs := br.u32()
			switch {
			case br.short:
				drop("short stream frame")
			case core >= MaxCores:
				drop(fmt.Sprintf("core %d exceeds limit", core))
			case nivs > MaxIntervalsPerCore:
				drop(fmt.Sprintf("interval count %d exceeds limit", nivs))
			case streams[int(core)] != nil && streams[int(core)].declared >= 0:
				rep.DupFrames++
			default:
				stream(int(core)).declared = int(nivs)
			}
		case FrameInterval:
			// v3 streams carry group frames; a bare v2 interval frame
			// here is stray bytes from another format.
			drop("v2 interval frame in v3 stream")
		case FrameIvGroup:
			flags := br.u8()
			core := br.uvarint()
			switch {
			case br.short:
				drop("short group frame")
			case core >= MaxCores:
				drop(fmt.Sprintf("core %d exceeds limit", core))
			case flags&^flagFlate != 0:
				drop(fmt.Sprintf("unknown group flags %#x", flags))
			default:
				st := stream(int(core))
				st.refs = append(st.refs, groupRef{
					off:   int64(pos + preambleLen),
					flags: flags,
					body:  br.data[br.pos:],
				})
			}
		case FrameIndex:
			// Advisory footer for OpenIndexed; the linear decoder has
			// no use for it beyond counting the frame.
		case FrameProvenance:
			ver := br.u8()
			switch {
			case br.short:
				drop("short provenance frame")
			case ver != provVersion:
				// A future payload revision: already counted as an
				// encountered frame, skipped without a report so the
				// decode stays clean.
			default:
				core, recs, reason := decodeProvenanceBody(br)
				if reason != "" {
					drop(reason)
				} else {
					attachProvenance(l, core, recs)
				}
			}
		case FrameEnd:
			n := br.u32() // the trailing index offset is OpenIndexed's
			switch {
			case br.short:
				drop("short end frame")
			case sawEnd:
				rep.DupFrames++
			default:
				sawEnd = true
				endCount = n
			}
		}
		pos = end
	}

	if !sawEnd {
		rep.Truncated = true
	} else {
		// encountered counts the end frame itself; endCount does not.
		if encountered-1 < int(endCount) {
			rep.Truncated = true // whole frames vanished without a trace
		}
		if pos < len(data) {
			rep.BytesSkipped += int64(len(data) - pos)
		}
	}

	// Per-core body decode. Order within a core is file order; cores
	// are independent, so they can run concurrently.
	type coreJob struct {
		idx  int
		core int
		refs []groupRef
	}
	var jobs []coreJob
	for core, st := range streams {
		jobs = append(jobs, coreJob{idx: st.idx, core: core, refs: st.refs})
	}
	// Each job writes only its own results slot, but spawn in stream
	// order anyway so scheduling (and any future tracing) is stable.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].idx < jobs[j].idx })
	results := make([]v3coreResult, len(l.Streams))
	if workers > 1 && len(jobs) > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, jb := range jobs {
			wg.Add(1)
			go func(jb coreJob) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[jb.idx] = decodeCoreGroups(jb.core, jb.refs)
			}(jb)
		}
		wg.Wait()
	} else {
		for _, jb := range jobs {
			results[jb.idx] = decodeCoreGroups(jb.core, jb.refs)
		}
	}

	var groupErrs []FrameError
	groupDropped := 0
	for idx := range results {
		res := &results[idx]
		l.Streams[idx].Intervals = res.ivs
		rep.DupFrames += res.dups
		groupErrs = append(groupErrs, res.errs...)
		groupDropped += res.dropped
	}
	if groupDropped > 0 {
		merged := make([]FrameError, 0, len(rep.Frames)+len(groupErrs))
		merged = append(merged, rep.Frames...)
		merged = append(merged, groupErrs...)
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Offset < merged[j].Offset })
		if len(merged) > maxReportedFrames {
			merged = merged[:maxReportedFrames]
		}
		rep.Frames = merged
		rep.Dropped += groupDropped
	}

	for _, st := range streams {
		if st.declared >= 0 {
			if got := len(l.Streams[st.idx].Intervals); got < st.declared {
				rep.MissingIntervals += st.declared - got
			}
		}
	}
	if !headerSeen {
		rep.HeaderLost = true
		inferHeader(l)
	}
	return l, rep, nil
}

// decodeCoreGroups decodes one core's group frames in file order,
// enforcing cross-group Seq/Timestamp monotonicity the same way
// decodeV2 drops duplicate or out-of-order interval frames.
func decodeCoreGroups(core int, refs []groupRef) v3coreResult {
	var res v3coreResult
	var lastSeq, lastTs uint64
	have := false
	inf := getInflater()
	defer inf.release()
	for _, ref := range refs {
		body := ref.body
		if ref.flags&flagFlate != 0 {
			out, ok := inf.inflate(body)
			if !ok {
				res.drop(FrameError{Offset: ref.off, Type: FrameIvGroup, Core: core, Reason: "corrupt flate body"})
				continue
			}
			body = out
		}
		ivs, reason := decodeGroupBody(body)
		if reason != "" {
			res.drop(FrameError{Offset: ref.off, Type: FrameIvGroup, Core: core, Reason: reason})
			continue
		}
		if have && ivs[0].Seq <= lastSeq {
			res.dups++
			continue
		}
		if have && ivs[0].Timestamp < lastTs {
			res.drop(FrameError{Offset: ref.off, Type: FrameIvGroup, Core: core, Reason: "timestamp regression across groups"})
			continue
		}
		res.ivs = append(res.ivs, ivs...)
		lastSeq = ivs[len(ivs)-1].Seq
		lastTs = ivs[len(ivs)-1].Timestamp
		have = true
	}
	return res
}

// inflater decompresses flate group bodies, reusing one flate reader
// (through flate.Resetter) and one output buffer across the groups of
// a decode call. Each call that inflates (one core's groups, or one
// indexed seek) takes its own from inflaterPool, so DecodeParallel's
// goroutines never share a buffer.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter; nil until the first body
	lim io.LimitedReader
	out bytes.Buffer
}

// maxPooledInflate caps the output buffer an inflater keeps in the
// pool, so one huge body does not pin its buffer for later decodes.
const maxPooledInflate = 1 << 20

var inflaterPool sync.Pool

func getInflater() *inflater {
	if f, ok := inflaterPool.Get().(*inflater); ok {
		return f
	}
	return new(inflater)
}

func (f *inflater) release() {
	if f.out.Cap() > maxPooledInflate {
		f.out = bytes.Buffer{}
	}
	inflaterPool.Put(f)
}

// inflate decompresses a flate group body, bounded by MaxFrameLen so a
// decompression bomb cannot out-allocate the clamps. The result is
// valid until the next call.
func (f *inflater) inflate(src []byte) ([]byte, bool) {
	f.src.Reset(src)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.src)
	} else if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, false
	}
	f.lim = io.LimitedReader{R: f.fr, N: MaxFrameLen + 1}
	f.out.Reset()
	n, err := f.out.ReadFrom(&f.lim)
	if err != nil || n > MaxFrameLen {
		return nil, false
	}
	return f.out.Bytes(), true
}

// decodeGroupBody parses one decompressed group body into intervals.
// A non-empty reason means the body is structurally corrupt and the
// whole group is the unit of loss.
func decodeGroupBody(body []byte) ([]Interval, string) {
	br := &byteReader{data: body}
	count := br.uvarint()
	if br.short || count == 0 || count > MaxGroupIntervals {
		return nil, "bad group interval count"
	}
	seq := br.uvarint()
	ts := br.uvarint()
	if br.short {
		return nil, "short group header"
	}
	// Each interval costs at least two body bytes (nent+npred), so the
	// claimed count cannot out-allocate the bytes that back it.
	capHint := int(count)
	if capHint > br.remaining()/2+1 {
		capHint = br.remaining()/2 + 1
	}
	ivs := make([]Interval, 0, capHint)
	prevAddr := uint64(0)
	for i := 0; i < int(count); i++ {
		if i > 0 {
			sd := br.uvarint()
			td := br.uvarint()
			if br.short {
				return nil, "short group body"
			}
			if sd == 0 {
				return nil, "zero seq delta"
			}
			if seq+sd < seq {
				return nil, "seq overflow"
			}
			seq += sd
			if ts+td < ts {
				return nil, "timestamp overflow"
			}
			ts += td
		}
		nent := br.uvarint()
		npred := br.uvarint()
		if br.short ||
			nent > MaxEntriesPerInterval || int(nent) > br.remaining() ||
			npred > MaxPredsPerInterval || int(npred)*2 > br.remaining() {
			return nil, "bad interval counts"
		}
		iv := Interval{Seq: seq, CISN: uint16(seq), Timestamp: ts}
		// The counts were checked against the bytes left, so they
		// bound these allocations; zero counts keep the slices nil.
		if nent > 0 {
			iv.Entries = make([]Entry, 0, nent)
		}
		if npred > 0 {
			iv.Preds = make([]Pred, 0, npred)
		}
		for j := uint64(0); j < nent; j++ {
			e, ok := br.entryV3(&prevAddr)
			if !ok {
				return nil, "corrupt entry"
			}
			iv.Entries = append(iv.Entries, e)
		}
		for j := uint64(0); j < npred; j++ {
			pc := br.uvarint()
			ps := br.uvarint()
			if br.short || pc >= MaxCores {
				return nil, "corrupt pred"
			}
			iv.Preds = append(iv.Preds, Pred{Core: int(pc), Seq: ps})
		}
		ivs = append(ivs, iv)
	}
	if br.remaining() != 0 {
		return nil, "trailing bytes in group"
	}
	return ivs, ""
}

// entryV3 decodes one varint-encoded entry; the bool is false on a
// short read, unknown type, or a field that overflows its Log width.
func (b *byteReader) entryV3(prevAddr *uint64) (Entry, bool) {
	var e Entry
	e.Type = EntryType(b.u8())
	switch e.Type {
	case InorderBlock:
		v := b.uvarint()
		if v > math.MaxUint32 {
			return e, false
		}
		e.Size = uint32(v)
	case ReorderedLoad:
		e.Value = b.uvarint()
	case ReorderedStore, PatchedStore:
		e.Addr = *prevAddr + uint64(b.svarint())
		*prevAddr = e.Addr
		e.Value = b.uvarint()
		off := b.uvarint()
		if off > math.MaxUint16 {
			return e, false
		}
		e.Offset = uint16(off)
	case ReorderedAtomic:
		e.Addr = *prevAddr + uint64(b.svarint())
		*prevAddr = e.Addr
		e.Value = b.uvarint()
		e.StoreValue = b.uvarint()
		off := b.uvarint()
		if off > math.MaxUint16 {
			return e, false
		}
		e.Offset = uint16(off)
		e.DidWrite = b.u8() != 0
	case Dummy:
	default:
		return e, false
	}
	return e, !b.short
}
