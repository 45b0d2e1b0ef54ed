// The pooled HTTP fast lane: a hand-written codec for the fixed /send
// and /batch wire shapes. The generic encoding/json path walks reflection
// metadata and allocates a fresh decoder, token buffers and response
// buffers per request; this codec parses the known shape directly out of
// a pooled body buffer, interns selectors, and renders responses into a
// pooled output buffer — byte-identical to what encoding/json produces
// for the same values (proven by TestFastwireEncodeParity).
//
// The fast parser is deliberately narrow: anything it does not fully
// recognise — escaped strings, unknown fields, out-of-range numbers,
// malformed JSON — makes it bail, and the handler falls back to the
// shared encoding/json decoder (httpwire.DecodeSend/DecodeBatch), which
// either serves the request or produces the 400 obrouter would produce.
// The fast path therefore never accepts input the slow path would
// reject, and never rejects input the slow path would accept
// (FuzzSendBody checks the first half).
package main

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/httpwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// codec is the per-request scratch state: body and output buffers, the
// parsed-argument arena, the batch request slice, and the selector
// intern table. Recycled through codecPool so a warm server's request
// lifecycle performs no heap allocation in the common case.
type codec struct {
	body []byte
	out  []byte
	args []word.Word
	reqs []serve.Request
	sels map[string]string
}

var codecPool = sync.Pool{
	New: func() any { return &codec{sels: make(map[string]string)} },
}

func getCodec() *codec { return codecPool.Get().(*codec) }

func putCodec(c *codec) {
	// Do not let one pathological request pin a huge buffer (or an
	// unbounded intern table) in the pool forever.
	if cap(c.body) > 1<<20 {
		c.body = nil
	}
	if cap(c.out) > 1<<20 {
		c.out = nil
	}
	if len(c.sels) > 4096 {
		c.sels = make(map[string]string)
	}
	if cap(c.args) > 1<<16 {
		c.args = nil
	}
	if cap(c.reqs) > 1<<12 {
		c.reqs = nil
	}
	c.args = c.args[:0]
	c.reqs = c.reqs[:0]
	codecPool.Put(c)
}

// intern returns a selector string for the raw bytes without allocating
// when the selector has been seen before (the steady state: a serving
// workload uses a small fixed selector set).
func (c *codec) intern(b []byte) string {
	if s, ok := c.sels[string(b)]; ok {
		return s
	}
	s := string(b)
	c.sels[s] = s
	return s
}

// parser walks a byte slice. All parse methods report failure by
// returning ok=false, which makes the handler fall back to encoding/json.
type parser struct {
	b   []byte
	pos int
}

func (p *parser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes one expected byte.
func (p *parser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// peek returns the next byte without consuming it.
func (p *parser) peek() (byte, bool) {
	if p.pos < len(p.b) {
		return p.b[p.pos], true
	}
	return 0, false
}

// simpleString parses a JSON string with no escapes and no control
// bytes, returning the raw contents. Escaped strings — and invalid
// UTF-8, which json.Unmarshal would coerce to U+FFFD rather than pass
// through — bail to the fallback parser.
func (p *parser) simpleString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.b) {
		switch c := p.b[p.pos]; {
		case c == '"':
			s := p.b[start:p.pos]
			p.pos++
			if !utf8.Valid(s) {
				return nil, false
			}
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		default:
			p.pos++
		}
	}
	return nil, false
}

// number scans one JSON number token and reports whether it carries a
// fraction or exponent. The scan enforces the JSON number grammar, so
// the fast path never accepts literals ("007", ".5", "+1") that
// encoding/json would reject.
func (p *parser) number() (seg []byte, isFloat, ok bool) {
	start := p.pos
	p.eat('-')
	switch c, haveC := p.peek(); {
	case !haveC:
		return nil, false, false
	case c == '0':
		p.pos++
	case c >= '1' && c <= '9':
		for {
			c, haveC := p.peek()
			if !haveC || c < '0' || c > '9' {
				break
			}
			p.pos++
		}
	default:
		return nil, false, false
	}
	if c, haveC := p.peek(); haveC && c == '.' {
		isFloat = true
		p.pos++
		n := 0
		for {
			c, haveC := p.peek()
			if !haveC || c < '0' || c > '9' {
				break
			}
			p.pos++
			n++
		}
		if n == 0 {
			return nil, false, false
		}
	}
	if c, haveC := p.peek(); haveC && (c == 'e' || c == 'E') {
		isFloat = true
		p.pos++
		if c, haveC := p.peek(); haveC && (c == '+' || c == '-') {
			p.pos++
		}
		n := 0
		for {
			c, haveC := p.peek()
			if !haveC || c < '0' || c > '9' {
				break
			}
			p.pos++
			n++
		}
		if n == 0 {
			return nil, false, false
		}
	}
	return p.b[start:p.pos], isFloat, true
}

// numberWord parses a number as httpwire.DecodeSend does: integer literals
// become SmallInts, fractional/exponent literals become Floats. Integers
// outside the 32-bit machine word bail (the fallback produces the
// descriptive 400).
func (p *parser) numberWord() (word.Word, bool) {
	seg, isFloat, ok := p.number()
	if !ok {
		return word.Word{}, false
	}
	if isFloat {
		f, err := strconv.ParseFloat(string(seg), 64)
		if err != nil {
			return word.Word{}, false
		}
		return word.FromFloat(float32(f)), true
	}
	i, ok := parseInt64(seg)
	if !ok || int64(int32(i)) != i {
		return word.Word{}, false
	}
	return word.FromInt(int32(i)), true
}

// parseInt64 converts an already-grammar-checked integer token. Overflow
// is caught before each multiply-add — a wrapped accumulator would pass a
// post-hoc range check with a corrupted value.
func parseInt64(seg []byte) (int64, bool) {
	neg := false
	i := 0
	if len(seg) > 0 && seg[0] == '-' {
		neg = true
		i = 1
	}
	const cutoff = uint64(1) << 63 // one past MaxInt64; exactly -MinInt64
	var v uint64
	for ; i < len(seg); i++ {
		d := uint64(seg[i] - '0')
		if v > (cutoff-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		if v == cutoff {
			return math.MinInt64, true
		}
		return -int64(v), true
	}
	if v >= cutoff {
		return 0, false
	}
	return int64(v), true
}

// uintField parses a non-negative integer (key, max_steps).
func (p *parser) uintField() (uint64, bool) {
	seg, isFloat, ok := p.number()
	if !ok || isFloat || (len(seg) > 0 && seg[0] == '-') {
		return 0, false
	}
	var v uint64
	for _, c := range seg {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// intField parses a signed integer (timeout_ms).
func (p *parser) intField() (int64, bool) {
	seg, isFloat, ok := p.number()
	if !ok || isFloat {
		return 0, false
	}
	return parseInt64(seg)
}

// sendObject parses one send-request object into a serve.Request whose
// Args alias the codec's argument arena (valid until the codec is
// recycled, i.e. for the synchronous life of the HTTP request).
func (p *parser) sendObject(c *codec) (serve.Request, bool) {
	var req serve.Request
	haveRecv, haveSel := false, false
	p.ws()
	if !p.eat('{') {
		return req, false
	}
	p.ws()
	if p.eat('}') {
		return req, false // missing selector; let the fallback say so
	}
	for {
		p.ws()
		key, ok := p.simpleString()
		if !ok {
			return req, false
		}
		p.ws()
		if !p.eat(':') {
			return req, false
		}
		p.ws()
		switch string(key) {
		case "receiver":
			req.Receiver, ok = p.numberWord()
			haveRecv = true
		case "selector":
			var sel []byte
			if sel, ok = p.simpleString(); ok {
				req.Selector = c.intern(sel)
				haveSel = true
			}
		case "args":
			start := len(c.args)
			if ok = p.eat('['); !ok {
				return req, false
			}
			p.ws()
			if !p.eat(']') {
				for {
					w, wok := p.numberWord()
					if !wok {
						return req, false
					}
					c.args = append(c.args, w)
					p.ws()
					if p.eat(']') {
						break
					}
					if !p.eat(',') {
						return req, false
					}
					p.ws()
				}
			}
			req.Args = c.args[start:len(c.args):len(c.args)]
		case "key":
			req.Key, ok = p.uintField()
		case "max_steps":
			req.MaxSteps, ok = p.uintField()
		case "timeout_ms":
			// A negative or overflowing value bails: the fallback's
			// 400 names it.
			var ms int64
			if ms, ok = p.intField(); ok {
				var err error
				req.Timeout, err = httpwire.Timeout(ms)
				ok = err == nil
			}
		default:
			return req, false // unknown field: let encoding/json decide
		}
		if !ok {
			return req, false
		}
		p.ws()
		if p.eat('}') {
			break
		}
		if !p.eat(',') {
			return req, false
		}
	}
	if !haveRecv || !haveSel || req.Selector == "" {
		return req, false // fallback produces the descriptive 400
	}
	return req, true
}

// parseSend parses a complete /send body. Trailing bytes after the
// object are ignored, as json.Decoder.Decode ignores them.
func parseSend(body []byte, c *codec) (serve.Request, bool) {
	p := parser{b: body}
	return p.sendObject(c)
}

// parseBatch parses a complete /batch body — an array of send objects —
// into the codec's request slice.
func parseBatch(body []byte, c *codec) ([]serve.Request, bool) {
	p := parser{b: body}
	p.ws()
	if !p.eat('[') {
		return nil, false
	}
	p.ws()
	if p.eat(']') {
		return c.reqs[:0], true
	}
	reqs := c.reqs[:0]
	for {
		req, ok := p.sendObject(c)
		if !ok {
			return nil, false
		}
		reqs = append(reqs, req)
		p.ws()
		if p.eat(']') {
			break
		}
		if !p.eat(',') {
			return nil, false
		}
	}
	c.reqs = reqs
	return reqs, true
}

// ---- encoding ----

const hexDigits = "0123456789abcdef"

// appendJSONString renders s exactly as encoding/json does with its
// default HTML escaping: ", \ and control bytes escaped (with the \n,
// \r, \t shorthands), <, > and & as \u00XX, invalid UTF-8 as the
// six-byte � escape, and U+2028/U+2029 escaped for
// script-embedding safety.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// encoding/json writes the six-byte escape, not the raw
			// replacement-character bytes.
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat32 renders a float32 exactly as encoding/json does:
// shortest 32-bit representation, 'f' form inside [1e-6, 1e21), 'e'
// form outside it with the exponent's leading zero trimmed. Non-finite
// values return ok=false (encoding/json refuses them; the caller falls
// back so the behaviour matches).
func appendJSONFloat32(b []byte, v float32) ([]byte, bool) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendWord renders a machine value as httpwire.ResultResponse maps it.
func appendWord(b []byte, v word.Word) ([]byte, bool) {
	if i, ok := v.IntOK(); ok {
		return strconv.AppendInt(b, int64(i), 10), true
	}
	if f, ok := v.FloatOK(); ok {
		return appendJSONFloat32(b, f)
	}
	switch v {
	case word.True:
		return append(b, "true"...), true
	case word.False:
		return append(b, "false"...), true
	case word.Nil:
		return append(b, "null"...), true
	}
	return appendJSONString(b, v.String()), true
}

// appendSendResponse renders one result byte-identically to
// httpwire.WriteJSON(httpwire.ResultResponse(res)) minus the trailing
// newline the caller adds. ok=false means the value cannot be
// fast-encoded (non-finite float) and the caller must fall back.
func appendSendResponse(b []byte, res serve.Result) ([]byte, bool) {
	b = append(b, `{"result":`...)
	if res.Err != nil {
		b = append(b, `null,"error":`...)
		b = appendJSONString(b, res.Err.Error())
	} else {
		var ok bool
		if b, ok = appendWord(b, res.Value); !ok {
			return b, false
		}
	}
	b = append(b, `,"worker":`...)
	b = strconv.AppendInt(b, int64(res.Worker), 10)
	b = append(b, `,"steps":`...)
	b = strconv.AppendUint(b, res.Steps, 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, res.Cycles, 10)
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, res.Latency.Microseconds(), 10)
	return append(b, '}'), true
}
