// Package obwire is the binary message-send transport: length-prefixed
// request/response frames over a persistent TCP connection, pipelined —
// many frames in flight per connection, responses matched by echoed
// frame id — and feeding the same serve.Pool the HTTP listener feeds.
//
// The paper's thesis is that a message send should cost what the
// hardware allows; PR 5 measured that ~97% of an HTTP send's latency is
// net/http itself. obwire is the remedy: a connection is dialed once,
// each end reuses its own buffers for every frame, and the server's
// read→dispatch→write loop runs at zero allocations per send in steady
// state (argument-carrying sends cost one slice; the pipelined
// zero-argument fast path costs nothing).
//
// # Framing
//
// A connection opens with the 4-byte magic "OBW2" from the client. Every
// frame after that is a little-endian u32 payload length followed by the
// payload. A machine word is its tag byte plus 4 payload bytes.
//
// Request payload (client → server):
//
//	u8  type (frameSend)
//	u64 frame id (echoed in the response)
//	u8+u32 receiver word
//	u64 routing key
//	u64 max steps (0: pool default)
//	u64 timeout in ns (0: pool default)
//	u16 selector length + bytes
//	u16 arg count + one u8+u32 word each
//
// Response payload (server → client), in request order per connection:
//
//	u8  type (frameResult)
//	u64 frame id
//	u8  status
//	u8+u32 result word (uninit unless StatusOK)
//	u32 worker
//	u64 steps
//	u64 cycles
//	u64 service latency in ns
//	u16 error message length + bytes (empty on StatusOK)
//
// A ping is u8 type (framePing) and u64 frame id. Its pong, answered in
// request order like a result, is u8 type (framePong), u64 frame id, u64
// queue depth (the pool's queue depths summed) and u16 not-ready reason
// length + bytes (empty while ready).
//
// Frame-level statuses mirror the HTTP status map one for one, so a
// client's backoff logic carries over unchanged: StatusOK is 200,
// StatusMachineError is 422 (do not retry), StatusOverloaded is 429
// (back off and retry), StatusShed is 503 (retry, ideally elsewhere).
//
// A malformed frame — oversized, truncated, or garbage — poisons only
// its own connection: the server counts it, stops reading, answers what
// it already dispatched, and closes. The daemon and every other
// connection keep serving.
//
// # Delivery
//
// The server runs each request frame at most once. The connection
// reader decodes a frame once and hands it to the pool once — Pool.TryDo
// while nothing is outstanding on the connection and TryDo takes it
// (with one P, whenever the frame's shard is idle; see Server),
// Pool.GoAt otherwise — and the pool never retries it; the frame's one
// response carries that outcome, and frames
// dispatched before a drain are still answered
// (TestShutdownAnswersInFlight). A malformed frame runs nothing.
//
// MuxClient never resends. A send whose connection dies before its
// answer arrives fails with ErrClientClosed whether or not the server
// ran it (TestMuxDeadConnectionFailsFast); retrying is the caller's
// decision.
//
// # Memory
//
// A connection holds what its traffic uses. Each end keeps one window,
// the ordered queue of its in-flight frames (the client's waiters, the
// server's dispatched frames awaiting their answers), and two buffers: a
// frame reader, which hands each frame out in place for decoding, and an
// output buffer, which frames are encoded straight into. A window starts
// at windowInit 16-byte slots and doubles whenever a send finds it full,
// up to DefaultWindow (16 KiB). A buffer starts at scratchSize bytes and
// doubles, up to connBufSize, when a read fills it or a burst outgrows
// it. Neither shrinks back, so a connection keeps what its deepest burst
// needed, and the caps bound that. TestConnFootprint reads about 4.5 KB
// of live heap per client/server pair after one send or one ping (its
// bound is 16 KiB), and about 59 KB per pair grown by a full
// DefaultWindow burst (bound 80 KiB). A cluster router's connections,
// with one or two sends in flight, stay at the small end.
//
// A frame that does not fit connBufSize is read into, or encoded in, a
// buffer of its own size, which is dropped for a fresh scratchSize one
// once the frame is done: a large frame costs one allocation of its
// size, and the connection does not keep that size.
package obwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// Magic opens every connection, client first. A listener that reads
// anything else closes immediately — a cheap guard against stray HTTP
// clients and port scanners wedging a frame parser. Its digit is the
// protocol version, so a mismatched pair fails at the handshake.
const Magic = "OBW2"

// Frame types.
const (
	frameSend   = 0x01
	frameResult = 0x02
	// framePing/framePong are the in-band health check: a ping is
	// answered with a pong carrying the same frame id, ordered with the
	// results like any other frame — so a pong proves the connection's
	// whole read→dispatch→write loop is alive, not just the TCP socket.
	// The pong also carries what the cluster router steers by, taken
	// when it is written: the pool's queue depth and not-ready reason.
	framePing = 0x03
	framePong = 0x04
)

// Frame-level statuses, mirroring the HTTP map (see httpwire.Status):
// retry semantics carry over unchanged.
const (
	StatusOK           = 0x00 // 200: Value holds the answer
	StatusMachineError = 0x01 // 422: the send failed; do not retry
	StatusOverloaded   = 0x02 // 429: refused at admission; back off and retry
	StatusShed         = 0x03 // 503: expired in queue; retry, ideally elsewhere
)

// DefaultMaxFrame caps a frame payload. The largest legitimate request
// (u16-bounded selector and args) is ~390 KiB; 1 MiB refuses nothing
// real while keeping a hostile length prefix from ballooning a buffer.
const DefaultMaxFrame = 1 << 20

// DefaultWindow is the per-connection in-flight frame cap: the server's
// reader parks once this many dispatched requests await their response
// writes, and a MuxClient refuses the next send with ErrWindowFull. Each
// end's window grows toward the cap only as deep as its traffic
// pipelines, so the cap bounds a connection's memory no matter how hard
// a client pipelines: at most 16 KiB of 16-byte slots per end (see the
// package doc's Memory section).
const DefaultWindow = 1024

// connBufSize caps the frame reader and the output buffer at each end of
// a connection: net/http's default, about 80 tiny send frames, so a deep
// burst costs one syscall per 4 KiB. A frame larger than this gets a
// buffer of its own size for as long as it is in flight.
const connBufSize = 4 << 10

// scratchSize is the size each end's frame reader and output buffer
// start at, and drop back to once a frame larger than connBufSize is
// done: room for a few tiny frames.
const scratchSize = 256

// StatusFor maps a pool error onto the frame status, mirroring the HTTP
// map: nil is OK, admission refusals are Overloaded, queue-expiry sheds
// are Shed, and everything else — machine errors, a closing pool — is a
// MachineError the client must not retry.
func StatusFor(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, serve.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, serve.ErrExpired):
		return StatusShed
	}
	return StatusMachineError
}

// Retryable reports whether a status is worth retrying — exactly the
// refusal statuses, matching loadgen's 429/503 handling.
func Retryable(status uint8) bool {
	return status == StatusOverloaded || status == StatusShed
}

// Response is one decoded result frame.
type Response struct {
	ID      uint64
	Status  uint8
	Value   word.Word
	Err     string // refusal or machine-error message; empty on StatusOK
	Worker  uint32
	Steps   uint64
	Cycles  uint64
	Latency time.Duration
}

// OK reports whether the send succeeded.
func (r Response) OK() bool { return r.Status == StatusOK }

// appendU16/32/64 are the little-endian primitives of the frame
// encoding, append-style so encoders compose into one reused buffer.
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendWord(b []byte, w word.Word) []byte {
	b = append(b, byte(w.Tag))
	return appendU32(b, w.Bits)
}

// appendRequest encodes one send frame — length prefix included — onto b.
func appendRequest(b []byte, id uint64, req serve.Request) []byte {
	start := len(b)
	b = appendU32(b, 0) // length, patched below
	b = append(b, frameSend)
	b = appendU64(b, id)
	b = appendWord(b, req.Receiver)
	b = appendU64(b, req.Key)
	b = appendU64(b, req.MaxSteps)
	b = appendU64(b, uint64(max(req.Timeout, 0)))
	b = appendU16(b, uint16(len(req.Selector)))
	b = append(b, req.Selector...)
	b = appendU16(b, uint16(len(req.Args)))
	for _, a := range req.Args {
		b = appendWord(b, a)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendPing encodes one ping frame — length prefix included — onto b.
func appendPing(b []byte, id uint64) []byte {
	b = appendU32(b, 9) // type + id
	b = append(b, framePing)
	return appendU64(b, id)
}

// appendPong encodes one pong frame — length prefix included — onto b.
func appendPong(b []byte, id uint64, depth int64, notReady string) []byte {
	b = appendU32(b, uint32(19+len(notReady))) // type + id + depth + reason
	b = append(b, framePong)
	b = appendU64(b, id)
	b = appendU64(b, uint64(depth))
	b = appendU16(b, uint16(len(notReady)))
	return append(b, notReady...)
}

// decodePong decodes one pong frame payload. The reason, sent only while
// the node is not ready, is the single allocation.
func decodePong(b []byte) (id uint64, depth int64, notReady string, err error) {
	d := dec{b: b}
	if d.u8() != framePong {
		d.fail()
	}
	id, depth = d.u64(), int64(d.u64())
	notReady = string(d.bytes(int(d.u16())))
	return id, depth, notReady, d.done()
}

// appendResponse encodes one result frame — length prefix included —
// onto b. The error message is the pool error's text; fixed sentinel
// errors reuse their existing strings, so encoding allocates nothing.
func appendResponse(b []byte, id uint64, res serve.Result) []byte {
	status := StatusFor(res.Err)
	start := len(b)
	b = appendU32(b, 0) // length, patched below
	b = append(b, frameResult)
	b = appendU64(b, id)
	b = append(b, status)
	if status == StatusOK {
		b = appendWord(b, res.Value)
	} else {
		b = appendWord(b, word.Uninit)
	}
	b = appendU32(b, uint32(res.Worker))
	b = appendU64(b, res.Steps)
	b = appendU64(b, res.Cycles)
	b = appendU64(b, uint64(max(res.Latency, 0)))
	if status == StatusOK {
		b = appendU16(b, 0)
	} else {
		msg := res.Err.Error()
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		b = appendU16(b, uint16(len(msg)))
		b = append(b, msg...)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// decodeResponse decodes one result frame payload. The error message,
// present only on non-OK statuses, is the single allocation.
func decodeResponse(b []byte) (Response, error) {
	d := dec{b: b}
	if t := d.u8(); t != frameResult && !d.bad {
		return Response{}, fmt.Errorf("obwire: unknown response frame type 0x%02x", t)
	}
	r := Response{
		ID:     d.u64(),
		Status: d.u8(),
		Value:  d.word(),
	}
	r.Worker = d.u32()
	r.Steps = d.u64()
	r.Cycles = d.u64()
	r.Latency = time.Duration(d.u64())
	r.Err = string(d.bytes(int(d.u16())))
	if err := d.done(); err != nil {
		return Response{}, err
	}
	return r, nil
}

// dec is a poisoning little-endian reader over one frame payload,
// mirroring the image codec: the first short read marks it bad and every
// later read returns zeros, so decoders check err once at the end.
type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }

func (d *dec) u8() byte {
	if d.bad || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.bad || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.bad || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.bad || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) word() word.Word {
	tag := d.u8()
	bits := d.u32()
	if word.Tag(tag) >= word.NumTags {
		d.fail()
		return word.Word{}
	}
	return word.Word{Tag: word.Tag(tag), Bits: bits}
}

// bytes returns n payload bytes without copying; the caller must copy or
// intern before the frame buffer is reused.
func (d *dec) bytes(n int) []byte {
	if d.bad || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// done closes a decode: every byte consumed and no poisoning read.
func (d *dec) done() error {
	if d.bad {
		return errors.New("obwire: truncated or malformed frame")
	}
	if d.off != len(d.b) {
		return fmt.Errorf("obwire: %d trailing bytes in frame", len(d.b)-d.off)
	}
	return nil
}
