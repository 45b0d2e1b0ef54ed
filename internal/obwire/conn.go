package obwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// windowInit is the slot count a connection's window starts with: enough
// for the one or two sends a router connection has in flight. It doubles
// from here as the pipeline deepens, up to DefaultWindow.
const windowInit = 4

// window is one end's ordered in-flight queue: the client's waiters, the
// server's dispatched frames awaiting their answers. It is a ring that
// starts at windowInit slots and doubles whenever a push finds it full,
// up to DefaultWindow, so a connection holds the slots its deepest burst
// used and no more. At DefaultWindow entries tryPush refuses and push
// parks until a pop makes room.
type window[T any] struct {
	mu     sync.Mutex
	moved  sync.Cond // signalled on every push, pop and close
	ring   []T
	head   int // index of the oldest entry
	n      int // entries queued
	closed bool
}

// init readies a zero window, in place: the window must not move after.
func (w *window[T]) init() {
	w.moved.L = &w.mu
	w.ring = make([]T, windowInit)
}

// add queues v, growing the ring if it is full and below DefaultWindow.
// It reports false, queuing nothing, at DefaultWindow entries. Callers
// hold w.mu.
func (w *window[T]) add(v T) bool {
	if w.n == len(w.ring) {
		if w.n >= DefaultWindow {
			return false
		}
		grown := make([]T, min(2*len(w.ring), DefaultWindow))
		k := copy(grown, w.ring[w.head:])
		copy(grown[k:], w.ring[:w.head])
		w.ring, w.head = grown, 0
	}
	w.ring[(w.head+w.n)%len(w.ring)] = v
	w.n++
	return true
}

// take dequeues the oldest entry, clearing its slot so the ring keeps
// nothing reachable. Callers hold w.mu and know w.n > 0.
func (w *window[T]) take() T {
	var zero T
	v := w.ring[w.head]
	w.ring[w.head] = zero
	w.head = (w.head + 1) % len(w.ring)
	w.n--
	return v
}

// tryPush queues v unless DefaultWindow entries are already queued.
func (w *window[T]) tryPush(v T) bool {
	w.mu.Lock()
	ok := w.add(v)
	w.mu.Unlock()
	if ok {
		w.moved.Signal()
	}
	return ok
}

// push queues v, parking while DefaultWindow entries are queued. It is
// for a single pusher facing a single popper: either may be parked, never
// both, so one Signal always wakes the right one.
func (w *window[T]) push(v T) {
	w.mu.Lock()
	for !w.add(v) {
		w.moved.Wait()
	}
	w.mu.Unlock()
	w.moved.Signal()
}

// tryPop dequeues the oldest entry, if any.
func (w *window[T]) tryPop() (v T, ok bool) {
	w.mu.Lock()
	if ok = w.n > 0; ok {
		v = w.take()
	}
	w.mu.Unlock()
	if ok {
		w.moved.Signal()
	}
	return v, ok
}

// pop dequeues the oldest entry, parking while the window is empty. It
// answers false once the window is closed and empty.
func (w *window[T]) pop() (v T, ok bool) {
	w.mu.Lock()
	for w.n == 0 && !w.closed {
		w.moved.Wait()
	}
	if ok = w.n > 0; ok {
		v = w.take()
	}
	w.mu.Unlock()
	if ok {
		w.moved.Signal()
	}
	return v, ok
}

// len answers how many entries are queued.
func (w *window[T]) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// close marks that nothing more will be pushed; pop drains what is
// queued and then answers false.
func (w *window[T]) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.moved.Broadcast()
}

// errFrameLength is the error for a length prefix outside
// (0, DefaultMaxFrame]; it poisons the connection before a payload byte
// is read.
var errFrameLength = fmt.Errorf("obwire: frame length outside (0, %d]", DefaultMaxFrame)

// frameReader reads one end's length-prefixed frames into a single
// buffer and hands each payload out in place, with no copy. The buffer
// starts at scratchSize and doubles, up to connBufSize, each time a read
// fills it: a connection that only ever has a frame or two in transit
// keeps a small buffer, and one that is sent bursts reads them up to
// connBufSize per syscall. A frame that does not fit connBufSize gets a
// buffer of exactly its size, which is dropped for a fresh scratchSize
// one once the frame has been handed out.
type frameReader struct {
	r   io.Reader
	buf []byte
	off int // buf[off:end] is read but not yet handed out
	end int
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, scratchSize)}
}

// buffered answers how many bytes are already read behind the last
// frame handed out.
func (f *frameReader) buffered() int { return f.end - f.off }

// framed reports whether the next frame is already read in full behind
// the last one handed out, so next answers it without reading.
func (f *frameReader) framed() bool {
	k := f.end - f.off
	return k >= 4 && uint64(k-4) >= uint64(binary.LittleEndian.Uint32(f.buf[f.off:]))
}

// next answers the next frame's payload, valid until the following call.
// The error is io.EOF when the stream ends cleanly between frames,
// io.ErrUnexpectedEOF when it ends inside one, and wraps errFrameLength
// for a length prefix out of range.
func (f *frameReader) next() ([]byte, error) {
	hdr, err := f.read(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || n > DefaultMaxFrame {
		return nil, fmt.Errorf("%w: %d", errFrameLength, n)
	}
	p, err := f.read(n)
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return p, err
}

// read answers the next n bytes in place, valid until the following call,
// with io.ReadFull's errors: io.EOF when nothing of them arrived,
// io.ErrUnexpectedEOF when some did.
func (f *frameReader) read(n int) ([]byte, error) {
	if f.off == f.end {
		// Nothing unread: read from the front, so a burst lands in one
		// read however far the last one reached.
		if len(f.buf) > connBufSize {
			f.buf = make([]byte, scratchSize)
		}
		f.off, f.end = 0, 0
	}
	for f.end-f.off < n {
		if f.off+n > len(f.buf) {
			size := len(f.buf)
			for size < n && size < connBufSize {
				size *= 2
			}
			f.resize(max(size, n))
		}
		k, err := f.r.Read(f.buf[f.end:])
		f.end += k
		if f.end == len(f.buf) && len(f.buf) < connBufSize {
			f.resize(min(2*len(f.buf), connBufSize))
		}
		if err != nil && f.end-f.off < n {
			if err == io.EOF && f.end > f.off {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	p := f.buf[f.off : f.off+n]
	f.off += n
	return p, nil
}

// resize moves the unread bytes to the front of a buffer of size bytes,
// the current one when it already has that size.
func (f *frameReader) resize(size int) {
	b := f.buf
	if size != len(b) {
		b = make([]byte, size)
	}
	f.end = copy(b, f.buf[f.off:f.end])
	f.off = 0
	f.buf = b
}

// frameRoom is the free space frameWriter.frame guarantees: more than a
// tiny send, result or pong frame takes, so a burst of them never grows
// the buffer past connBufSize.
const frameRoom = 128

// frameWriter is one end's output: frames are encoded straight into buf
// and written to w on flush, or once buf holds nearly connBufSize bytes.
// The buffer starts at scratchSize and doubles, up to connBufSize, when a
// burst fills it; a larger frame grows it further, and that size is
// dropped once the frame is written.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) frameWriter {
	return frameWriter{w: w, buf: make([]byte, 0, scratchSize)}
}

// frame answers the buffer to append the next frame to, with at least
// frameRoom bytes free.
func (fw *frameWriter) frame() []byte {
	if cap(fw.buf)-len(fw.buf) < frameRoom {
		b := make([]byte, len(fw.buf), min(2*cap(fw.buf), connBufSize))
		copy(b, fw.buf)
		fw.buf = b
	}
	return fw.buf
}

// put takes back the buffer with frames appended, writing it out when
// flush is set or too little room is left for another tiny frame.
func (fw *frameWriter) put(b []byte, flush bool) error {
	fw.buf = b
	if flush || len(b) > connBufSize-frameRoom {
		return fw.flush()
	}
	return nil
}

// flush writes out whatever is buffered.
func (fw *frameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	if cap(fw.buf) > connBufSize {
		fw.buf = make([]byte, 0, scratchSize)
	}
	return err
}
