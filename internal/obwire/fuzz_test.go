package obwire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// FuzzDecodeFrames holds the hostile-input line of both frame decoders a
// peer can reach: the server's decodeRequest and the client's
// decodeResponse. Whatever payload arrives — junk, truncations, forged
// lengths, the other side's frames — each must return an error or a
// value, never panic; and a request that decodes must re-encode to the
// very bytes it came from, so the codec drops nothing it accepted.
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
	f.Add(payload(appendPong(nil, 3)))
	f.Add([]byte{})
	f.Add([]byte{frameSend})
	f.Add([]byte{frameResult})

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeResponse(data); err == nil && r.Value.Tag >= word.NumTags {
			t.Fatalf("decodeResponse accepted tag %d", r.Value.Tag)
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
