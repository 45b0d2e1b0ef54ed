package obwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// FuzzDecodeFrames holds the hostile-input line of every frame decoder a
// peer can reach: the server's decodeRequest and the client's
// decodeResponse and decodePong. Whatever payload arrives — junk,
// truncations, forged lengths, the other side's frames — each must
// return an error or a value, never panic; and a request or pong that
// decodes must re-encode to the very bytes it came from, so the codec
// drops nothing it accepted.
func FuzzDecodeFrames(f *testing.F) {
	payload := func(frame []byte) []byte { return frame[4:] } // strip the length prefix
	f.Add(payload(appendRequest(nil, 1, serve.Request{Receiver: word.FromInt(21), Selector: "double"})))
	f.Add(payload(appendRequest(nil, 1<<40, serve.Request{
		Receiver: word.FromInt(-7),
		Selector: "with:args:",
		Args:     []word.Word{word.FromInt(3), word.FromFloat(2.5), word.FromAtom(9)},
		Key:      42,
		MaxSteps: 1 << 20,
		Timeout:  1500 * time.Millisecond,
	})))
	f.Add(payload(appendResponse(nil, 7, serve.Result{Value: word.FromInt(42), Worker: 1, Steps: 3, Cycles: 4, Latency: time.Microsecond})))
	f.Add(payload(appendResponse(nil, 8, serve.Result{Err: serve.ErrOverloaded})))
	f.Add(payload(appendResponse(nil, 9, serve.Result{Err: errors.New("doesNotUnderstand: #foo")})))
	f.Add(payload(appendPing(nil, 3)))
	for _, reason := range []string{"", "draining", "rotating", "overloaded", "quarantine-heavy"} {
		f.Add(payload(appendPong(nil, 3, 17, reason)))
	}
	pong := payload(appendPong(nil, 4, 1<<40, "rotating"))
	f.Add(pong[:len(pong)-3])               // reason cut short
	f.Add(append(pong[:17:17], 0xff, 0xff)) // reason length past the frame
	f.Add([]byte{})
	f.Add([]byte{frameSend})
	f.Add([]byte{frameResult})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeResponse(data); err == nil && r.Value.Tag >= word.NumTags {
			t.Fatalf("decodeResponse accepted tag %d", r.Value.Tag)
		}
		if id, depth, reason, err := decodePong(data); err == nil {
			if again := payload(appendPong(nil, id, depth, reason)); !bytes.Equal(again, data) {
				t.Fatalf("decoded pong re-encodes differently:\n got %x\nwant %x", again, data)
			}
		}
		s := &Server{}
		id, req, err := s.decodeRequest(data, make(map[string]string))
		if err != nil || req.Timeout < 0 {
			return // a negative timeout is accepted and re-encoded as 0
		}
		if again := payload(appendRequest(nil, id, req)); !bytes.Equal(again, data) {
			t.Fatalf("decoded request re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// FuzzServeStream holds the server's stream reader — the length-prefix
// loop in serveConn that every connection's bytes pass through — against
// hostile streams: the fuzzed bytes follow the magic on a live
// connection, which then half-closes. Whatever arrives, the server must
// answer or poison the connection and close it within the deadline,
// never panic or hang, and afterwards answer a send on a fresh
// connection.
func FuzzServeStream(f *testing.F) {
	tiny := func(id uint64) []byte {
		return appendRequest(nil, id, serve.Request{Receiver: word.FromInt(int32(id)), Selector: "answer"})
	}
	var stream []byte // tiny sends up to a frame that straddles 4 KiB
	for id := uint64(0); len(stream) < connBufSize-100; id++ {
		stream = append(stream, tiny(id)...)
	}
	stream = appendRequest(stream, 1000, serve.Request{Receiver: word.FromInt(1), Selector: strings.Repeat("s", 300)})
	stream = appendPing(stream, 1001)
	f.Add(stream)
	f.Add(appendRequest(nil, 0, serve.Request{Receiver: word.FromInt(1), Selector: strings.Repeat("answer", 1000)}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(append(tiny(0), 0, 0, 0, 0))
	f.Add(appendU32(nil, DefaultMaxFrame+1))
	f.Add(appendU32(nil, 0xffffffff))
	f.Add(append(appendU32(nil, DefaultMaxFrame), frameSend, 1, 2, 3))
	f.Add(tiny(7)[:30])
	f.Add(appendPing(appendPing(appendPing(nil, 1), 2), 3))
	f.Add(append(appendPing(tiny(0), 1), tiny(2)...))
	f.Add([]byte{})
	// Whole frames that, behind the magic, exactly fill a fresh read
	// buffer: the read that fills it grows the buffer with nothing left
	// over.
	var fill []byte
	for id := uint64(0); len(Magic)+len(fill)+2*len(tiny(id)) <= scratchSize; id++ {
		fill = append(fill, tiny(id)...)
	}
	pad := strings.Repeat("s", scratchSize-len(Magic)-len(fill)-len(tiny(0)))
	f.Add(appendRequest(fill, 99, serve.Request{Receiver: word.FromInt(1), Selector: "answer" + pad}))
	// More than connBufSize of tiny frames, so the read buffer grows to
	// its cap, then a frame larger than the cap, then a send and a ping.
	var grow []byte
	for id := uint64(0); len(grow) <= 2*connBufSize; id++ {
		grow = append(grow, tiny(id)...)
	}
	grow = appendRequest(grow, 5000, serve.Request{Receiver: word.FromInt(1), Selector: strings.Repeat("s", connBufSize+500)})
	f.Add(appendPing(append(grow, tiny(5001)...), 5002))

	s, _ := startServer(f, serve.Config{Workers: 1, Timeout: 5 * time.Second}, Options{})
	addr := s.Addr().String()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		// A write error is the server hanging up mid-stream, which a
		// poisoned stream may do; only a timeout is a failure.
		if _, err := c.Write(append([]byte(Magic), data...)); isTimeout(err) {
			t.Fatalf("server stopped reading without closing: %v", err)
		}
		c.(*net.TCPConn).CloseWrite()
		if _, err := io.Copy(io.Discard, c); isTimeout(err) {
			t.Fatalf("server never closed the stream: %v", err)
		}

		m, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if r, err := m.Do(serve.Request{Receiver: word.FromInt(41), Selector: "answer"}); err != nil || r.Value.Int() != 42 {
			t.Fatalf("fresh connection answered %+v, %v; want 42", r, err)
		}
	})
}

// FuzzMuxStream holds the client's stream reader — MuxClient.readLoop,
// which every byte a node sends back passes through — against hostile
// streams: a loopback peer reads the magic, one send and one ping,
// writes the fuzzed bytes back and hangs up. Whatever arrives, the Do
// and the Ping must both return, with an answer or an error, within the
// deadline: no panic, no hang.
func FuzzMuxStream(f *testing.F) {
	result := func(id uint64, v int32) []byte {
		return appendResponse(nil, id, serve.Result{Value: word.FromInt(v), Steps: 3})
	}
	both := appendPong(result(0, 42), 1, 7, "")
	f.Add(both)
	f.Add(appendPong(result(0, 42), 1, 0, "draining"))
	f.Add(append(appendResponse(nil, 0, serve.Result{Err: serve.ErrOverloaded}), both[len(result(0, 42)):]...))
	f.Add(append(appendPong(nil, 1, 0, ""), result(0, 42)...)) // answered out of order
	f.Add(append(both, result(2, 1)...))                       // an unsolicited answer
	f.Add(appendPong(result(1, 42), 1, 0, ""))                 // the wrong id
	f.Add(appendPing(result(0, 42), 1))                        // a ping where the pong belongs
	f.Add(both[:len(both)-3])                                  // cut short
	f.Add(appendResponse(nil, 0, serve.Result{Err: errors.New(strings.Repeat("x", 2*connBufSize))}))
	f.Add(appendU32(nil, DefaultMaxFrame+1))
	f.Add(append(appendU32(nil, DefaultMaxFrame), frameResult, 0))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { l.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		read := make(chan struct{}, 1) // the peer has read the send
		peer := make(chan error, 1)
		go func() {
			peer <- func() error {
				c, err := l.Accept()
				if err != nil {
					return err
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(c)
				frame := func() error {
					var hdr [4]byte
					if _, err := io.ReadFull(br, hdr[:]); err != nil {
						return err
					}
					_, err := io.CopyN(io.Discard, br, int64(binary.LittleEndian.Uint32(hdr[:])))
					return err
				}
				if _, err := io.CopyN(io.Discard, br, int64(len(Magic))); err != nil {
					return err
				}
				if err := frame(); err != nil {
					return err
				}
				read <- struct{}{}
				if err := frame(); err != nil {
					return err
				}
				// A write error is the client hanging up on a poisoned
				// stream, which it may do.
				c.Write(data)
				return nil
			}()
		}()

		m, err := DialMux(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Not deferred: Close waits for the reader, which is what may hang.
		done := make(chan struct{}, 2)
		go func() {
			m.Do(serve.Request{Receiver: word.FromInt(41), Selector: "answer"})
			done <- struct{}{}
		}()
		deadline := time.After(10 * time.Second)
		select {
		case <-read:
		case err := <-peer:
			t.Fatalf("peer never read the send: %v", err)
		}
		// The ping follows the send on the wire: ids 0 and 1.
		go func() {
			m.Ping(0)
			done <- struct{}{}
		}()
		for range 2 {
			select {
			case <-done:
			case <-deadline:
				t.Fatal("the client is still waiting 10s after the stream ended")
			}
		}
		m.Close()
		if err := <-peer; err != nil {
			t.Fatalf("peer: %v", err)
		}
	})
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
