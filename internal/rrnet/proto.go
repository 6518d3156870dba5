// Package rrnet is the networked record-and-replay transport: the
// wire protocol, client, server and crash-safe journal behind the
// cmd/rrd (recorder agent) and cmd/rrproc (central processor)
// daemons. The relationship is 1:N — one rrproc multiplexes many
// concurrent rrd sessions into a single append-only journal.
//
// The design is robustness-first. Everything on the wire is a
// CRC32C-checked frame in the same sync/type/length/checksum layout
// as log format v2/v3 (internal/replaylog), so a damaged stream is
// resynchronized, never trusted; the client retries with capped
// exponential backoff plus deterministic jitter and resumes a session
// after reconnect from the server's cumulative ack; the send queue is
// bounded with an explicit slow-consumer policy (block, drop with a
// degradation record, or spill to disk); the server deduplicates
// re-delivered chunks so retry is idempotent; and the journal fsyncs
// at segment boundaries and recovers after a crash with the same
// salvage-by-resync discipline as DecodeRobust. See DESIGN.md
// "Networked streaming: rrd, rrproc and the journal".
package rrnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire preamble: sent by the client immediately after connecting.
//
//	preamble := magic "RRNT" | version u16 (LE)
//
// Everything after the preamble — in both directions — is a frame in
// the replaylog v2 layout:
//
//	frame := sync 0xF5 'R' 'F' '2'
//	       | type u8 | length u32 (LE, payload bytes)
//	       | payload
//	       | crc32c u32 (LE, over type|length|payload)
//
// Message payloads (all integers little-endian, strings u16-length-
// prefixed):
//
//	hello        (0x20): proto u16 | session u64 | resume u8 | tenant str
//	hello-ack    (0x21): status u8 | contig u64 | durable u64 | reason str
//	chunk        (0x22): session u64 | seq u64 | data...
//	ack          (0x23): session u64 | contig u64 | durable u64
//	commit       (0x24): session u64 | chunks u64 | loglen u64 | logcrc u32
//	                     | ndropped u32 | dropped seq u64 each
//	commit-ack   (0x25): session u64 | status u8 | missing u64 | reason str
//	heartbeat    (0x26): nonce u64
//	heartbeat-ack(0x27): nonce u64
//	error        (0x28): code u8 | message str
//
// contig is the cumulative ack: the number of chunks received
// contiguously from seq 0, i.e. the next seq the server needs. A
// client that reconnects resumes sending at contig; the server
// discards (but still acks) any chunk below it, which is what makes
// re-delivery after an ambiguous failure idempotent.
//
// durable is the crash-safe prefix: chunks below it have reached the
// journal AND been covered by an fsync'd segment boundary. The client
// frees buffered chunks only below durable — contig alone is not
// permission to forget, because a crashed-and-restarted rrproc
// recovers to its last durable point and may legitimately report a
// contig lower than one it acked before the crash. durable is
// monotonic across reconnects; contig may rewind at a handshake.

var wireMagic = [4]byte{'R', 'R', 'N', 'T'}

// ProtoVersion is the wire protocol version in the preamble and hello.
const ProtoVersion = 1

// wireSync mirrors the replaylog v2/v3 frame sync word: the wire uses
// the same sync/type/length/CRC32C frame layout as the on-disk logs.
// The code is not shared: frameReader here and the journal's scanFrames
// are copies of replaylog's CRC and resync logic, which ROADMAP.md's
// "One frame layer, one log writer" item folds into one package.
var wireSync = [4]byte{0xF5, 'R', 'F', '2'}

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MsgType discriminates wire frames. The range starts at 0x20, clear
// of the replaylog frame types (1..8), so a wire frame can never be
// mistaken for a log frame by a tool scanning the wrong stream.
type MsgType uint8

const (
	MsgHello        MsgType = 0x20
	MsgHelloAck     MsgType = 0x21
	MsgChunk        MsgType = 0x22
	MsgAck          MsgType = 0x23
	MsgCommit       MsgType = 0x24
	MsgCommitAck    MsgType = 0x25
	MsgHeartbeat    MsgType = 0x26
	MsgHeartbeatAck MsgType = 0x27
	MsgError        MsgType = 0x28
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgChunk:
		return "chunk"
	case MsgAck:
		return "ack"
	case MsgCommit:
		return "commit"
	case MsgCommitAck:
		return "commit-ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgHeartbeatAck:
		return "heartbeat-ack"
	case MsgError:
		return "error"
	}
	return fmt.Sprintf("msg(0x%02x)", uint8(t))
}

// Hello-ack / commit-ack status codes.
const (
	StatusOK       = 0 // accepted / committed with every chunk accounted for
	StatusDegraded = 1 // committed, but chunks are missing (reported)
	StatusReject   = 2 // refused (reason attached)
)

// Decode limits: every length or count field read off the wire is
// clamped before any allocation, exactly like the log decoder's
// hostile-header discipline.
const (
	// MaxWirePayload bounds one frame payload (16 MiB).
	MaxWirePayload = 1 << 24
	// MaxTenantLen bounds the tenant string.
	MaxTenantLen = 1 << 10
	// MaxReasonLen bounds ack/error reason strings.
	MaxReasonLen = 1 << 12
	// MaxDroppedReport bounds the dropped-seq list a commit may carry;
	// a client that dropped more reports the count but lists only the
	// first MaxDroppedReport.
	MaxDroppedReport = 1 << 12
)

// Typed wire errors.
var (
	// ErrBadPreamble reports a connection that did not open with the
	// RRNT magic and a supported version.
	ErrBadPreamble = errors.New("rrnet: bad connection preamble")
	// ErrFrameTooLarge reports a frame whose length field exceeds
	// MaxWirePayload; the stream cannot be trusted past it.
	ErrFrameTooLarge = errors.New("rrnet: wire frame too large")
	// ErrResyncBudget reports a stream that needed more garbage skipped
	// than the reader's budget allows.
	ErrResyncBudget = errors.New("rrnet: resync budget exhausted")
)

// appendFrame appends one checksummed frame to dst and returns it.
// The single-buffer shape lets the caller hand one complete frame to
// one Write call, which is what the fault transport (WrapFaultConn)
// keys on: one Write == one frame.
func appendFrame(dst []byte, t MsgType, payload []byte) []byte {
	var hdr [9]byte
	copy(hdr[:4], wireSync[:])
	hdr[4] = uint8(t)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[4:])
	crc = crc32.Update(crc, castagnoli, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return append(dst, tail[:]...)
}

// writeFrame writes one frame to w as a single Write call.
func writeFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxWirePayload {
		return fmt.Errorf("%w: %s frame payload is %d bytes (limit %d)",
			ErrFrameTooLarge, t, len(payload), MaxWirePayload)
	}
	buf := appendFrame(make([]byte, 0, 13+len(payload)), t, payload)
	_, err := w.Write(buf)
	return err
}

// frameReader reads frames from a (possibly hostile) byte stream,
// resynchronizing past garbage and CRC failures the way the log
// decoder does. It never allocates more than MaxWirePayload per frame
// regardless of what the length field claims.
type frameReader struct {
	r *bufio.Reader

	// skipBudget bounds the total garbage bytes tolerated before the
	// stream is declared unusable (<=0: no budget, for trusted pipes).
	skipBudget int64

	// Skipped and Dropped count resynced bytes and CRC-failed frames.
	Skipped int64
	Dropped int
}

func newFrameReader(r io.Reader, skipBudget int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10), skipBudget: skipBudget}
}

// next returns the next intact frame, skipping garbage and corrupt
// frames. io.EOF means a clean end between frames; io.ErrUnexpectedEOF
// a tear inside one.
func (fr *frameReader) next() (MsgType, []byte, error) {
	for {
		// Hunt for the sync word byte by byte.
		b, err := fr.r.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		if b != wireSync[0] {
			if err := fr.skip(1); err != nil {
				return 0, nil, err
			}
			continue
		}
		rest, err := fr.r.Peek(3)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		if rest[0] != wireSync[1] || rest[1] != wireSync[2] || rest[2] != wireSync[3] {
			if err := fr.skip(1); err != nil {
				return 0, nil, err
			}
			continue
		}
		if _, err := fr.r.Discard(3); err != nil {
			return 0, nil, err
		}
		var hdr [5]byte // type u8 | length u32
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		length := binary.LittleEndian.Uint32(hdr[1:])
		if length > MaxWirePayload {
			// The length field cannot be trusted; everything consumed
			// past the sync word is garbage. Resync from here.
			if err := fr.skip(int64(len(hdr)) + 3); err != nil {
				return 0, nil, err
			}
			continue
		}
		body := make([]byte, length+4)
		if _, err := io.ReadFull(fr.r, body); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		crc := crc32.Update(0, castagnoli, hdr[:])
		crc = crc32.Update(crc, castagnoli, body[:length])
		if crc != binary.LittleEndian.Uint32(body[length:]) {
			fr.Dropped++
			if err := fr.skip(int64(len(hdr)) + 3 + int64(len(body))); err != nil {
				return 0, nil, err
			}
			continue
		}
		return MsgType(hdr[0]), body[:length], nil
	}
}

// skip charges n bytes against the resync budget.
func (fr *frameReader) skip(n int64) error {
	fr.Skipped += n
	if fr.skipBudget > 0 && fr.Skipped > fr.skipBudget {
		return fmt.Errorf("%w: skipped %d bytes", ErrResyncBudget, fr.Skipped)
	}
	return nil
}

// writePreamble / readPreamble frame the connection open.
func writePreamble(w io.Writer) error {
	var b [6]byte
	copy(b[:4], wireMagic[:])
	binary.LittleEndian.PutUint16(b[4:], ProtoVersion)
	_, err := w.Write(b[:])
	return err
}

func readPreamble(r io.Reader) error {
	var b [6]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPreamble, err)
	}
	if [4]byte(b[:4]) != wireMagic {
		return fmt.Errorf("%w: magic %q", ErrBadPreamble, b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != ProtoVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadPreamble, v, ProtoVersion)
	}
	return nil
}

// payload builders / parsers. The byteScanner mirrors replaylog's
// bounds-checked cursor: reads past the end set short, never panic.

type wirePayload struct{ bytes.Buffer }

func (p *wirePayload) u8(v uint8) { p.WriteByte(v) }
func (p *wirePayload) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	p.Write(b[:])
}
func (p *wirePayload) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.Write(b[:])
}
func (p *wirePayload) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Write(b[:])
}
func (p *wirePayload) str(s string) {
	p.u16(uint16(len(s)))
	p.WriteString(s)
}

type byteScanner struct {
	data  []byte
	pos   int
	short bool
}

func (b *byteScanner) remaining() int { return len(b.data) - b.pos }

func (b *byteScanner) take(n int) []byte {
	if n < 0 || b.remaining() < n {
		b.short = true
		b.pos = len(b.data)
		return nil
	}
	out := b.data[b.pos : b.pos+n]
	b.pos += n
	return out
}

func (b *byteScanner) u8() uint8 {
	s := b.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (b *byteScanner) u16() uint16 {
	s := b.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (b *byteScanner) u32() uint32 {
	s := b.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (b *byteScanner) u64() uint64 {
	s := b.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// str reads a u16-length-prefixed string clamped to limit.
func (b *byteScanner) str(limit int) string {
	n := int(b.u16())
	if n > limit {
		b.short = true
		b.pos = len(b.data)
		return ""
	}
	return string(b.take(n))
}

// Message structs and their codecs.

type helloMsg struct {
	Proto   uint16
	Session uint64
	Resume  bool
	Tenant  string
}

func encodeHello(m helloMsg) []byte {
	var p wirePayload
	p.u16(m.Proto)
	p.u64(m.Session)
	r := uint8(0)
	if m.Resume {
		r = 1
	}
	p.u8(r)
	p.str(m.Tenant)
	return p.Bytes()
}

func decodeHello(b []byte) (helloMsg, bool) {
	s := &byteScanner{data: b}
	m := helloMsg{Proto: s.u16(), Session: s.u64(), Resume: s.u8() != 0, Tenant: s.str(MaxTenantLen)}
	return m, !s.short
}

type helloAckMsg struct {
	Status  uint8
	Contig  uint64
	Durable uint64
	Reason  string
}

func encodeHelloAck(m helloAckMsg) []byte {
	var p wirePayload
	p.u8(m.Status)
	p.u64(m.Contig)
	p.u64(m.Durable)
	p.str(m.Reason)
	return p.Bytes()
}

func decodeHelloAck(b []byte) (helloAckMsg, bool) {
	s := &byteScanner{data: b}
	m := helloAckMsg{Status: s.u8(), Contig: s.u64(), Durable: s.u64(), Reason: s.str(MaxReasonLen)}
	return m, !s.short
}

type chunkMsg struct {
	Session uint64
	Seq     uint64
	Data    []byte
}

func encodeChunk(m chunkMsg) []byte {
	var p wirePayload
	p.Grow(16 + len(m.Data))
	p.u64(m.Session)
	p.u64(m.Seq)
	p.Write(m.Data)
	return p.Bytes()
}

func decodeChunk(b []byte) (chunkMsg, bool) {
	s := &byteScanner{data: b}
	m := chunkMsg{Session: s.u64(), Seq: s.u64()}
	if s.short {
		return m, false
	}
	m.Data = s.take(s.remaining())
	return m, !s.short
}

type ackMsg struct {
	Session uint64
	Contig  uint64
	Durable uint64
}

func encodeAck(m ackMsg) []byte {
	var p wirePayload
	p.u64(m.Session)
	p.u64(m.Contig)
	p.u64(m.Durable)
	return p.Bytes()
}

func decodeAck(b []byte) (ackMsg, bool) {
	s := &byteScanner{data: b}
	m := ackMsg{Session: s.u64(), Contig: s.u64(), Durable: s.u64()}
	return m, !s.short
}

type commitMsg struct {
	Session uint64
	Chunks  uint64 // chunks the client produced (including dropped)
	LogLen  uint64 // total log bytes produced
	LogCRC  uint32 // CRC32C over the full produced log bytes
	Dropped []uint64
	NDrop   uint64 // true dropped count (may exceed len(Dropped))
}

func encodeCommit(m commitMsg) []byte {
	var p wirePayload
	p.u64(m.Session)
	p.u64(m.Chunks)
	p.u64(m.LogLen)
	p.u32(m.LogCRC)
	p.u64(m.NDrop)
	list := m.Dropped
	if len(list) > MaxDroppedReport {
		list = list[:MaxDroppedReport]
	}
	p.u32(uint32(len(list)))
	for _, d := range list {
		p.u64(d)
	}
	return p.Bytes()
}

func decodeCommit(b []byte) (commitMsg, bool) {
	s := &byteScanner{data: b}
	m := commitMsg{Session: s.u64(), Chunks: s.u64(), LogLen: s.u64(), LogCRC: s.u32(), NDrop: s.u64()}
	n := s.u32()
	if s.short || n > MaxDroppedReport || int(n)*8 > s.remaining() {
		return m, false
	}
	for i := uint32(0); i < n; i++ {
		m.Dropped = append(m.Dropped, s.u64())
	}
	return m, !s.short
}

type commitAckMsg struct {
	Session uint64
	Status  uint8
	Missing uint64
	Reason  string
}

func encodeCommitAck(m commitAckMsg) []byte {
	var p wirePayload
	p.u64(m.Session)
	p.u8(m.Status)
	p.u64(m.Missing)
	p.str(m.Reason)
	return p.Bytes()
}

func decodeCommitAck(b []byte) (commitAckMsg, bool) {
	s := &byteScanner{data: b}
	m := commitAckMsg{Session: s.u64(), Status: s.u8(), Missing: s.u64(), Reason: s.str(MaxReasonLen)}
	return m, !s.short
}

func encodeNonce(nonce uint64) []byte {
	var p wirePayload
	p.u64(nonce)
	return p.Bytes()
}

func decodeNonce(b []byte) (uint64, bool) {
	s := &byteScanner{data: b}
	n := s.u64()
	return n, !s.short
}

type errorMsg struct {
	Code    uint8
	Message string
}

func encodeError(m errorMsg) []byte {
	var p wirePayload
	p.u8(m.Code)
	p.str(m.Message)
	return p.Bytes()
}

func decodeError(b []byte) (errorMsg, bool) {
	s := &byteScanner{data: b}
	m := errorMsg{Code: s.u8(), Message: s.str(MaxReasonLen)}
	return m, !s.short
}
