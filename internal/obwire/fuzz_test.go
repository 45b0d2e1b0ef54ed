package obwire

import (
	"bytes"
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

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
