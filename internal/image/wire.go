package image

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fpa"
	"repro/internal/word"
)

// Wire primitives: a little-endian append-only encoder and a bounds-checked
// decoder. The decoder is built for untrusted input — every slice length is
// capped by the bytes actually remaining in the section (each element
// occupies at least a known minimum), so a forged header can never make the
// loader allocate more than a small constant factor of what it was handed.

type enc struct {
	b []byte
}

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) addr(a fpa.Addr) {
	e.u8(a.Exp)
	e.u64(a.Mantissa)
}

func (e *enc) word(w word.Word) {
	e.u8(uint8(w.Tag))
	e.u32(w.Bits)
}

// grow reserves n more bytes and returns the write window, so bulk
// encoders fill by index instead of paying per-element append checks.
func (e *enc) grow(n int) []byte {
	off := len(e.b)
	e.b = append(e.b, make([]byte, n)...)
	return e.b[off:]
}

func (e *enc) words(ws []word.Word) {
	e.u32(uint32(len(ws)))
	out := e.grow(5 * len(ws))
	for i, w := range ws {
		out[i*5] = uint8(w.Tag)
		binary.LittleEndian.PutUint32(out[i*5+1:], w.Bits)
	}
}

func (e *enc) u32s(vs []uint32) {
	e.u32(uint32(len(vs)))
	out := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
}

func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	out := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
}

// dec decodes one section payload. The first error sticks; every getter
// returns a zero value once the decoder is poisoned, so call sites read
// straight through and check err (or remaining bytes) once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("image: truncated section (%d bytes needed, %d left)", n, d.remaining())
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i32() int32 { return int32(d.u32()) }
func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("image: malformed boolean")
		return false
	}
}

// sliceLen reads a slice length and caps it by the bytes remaining, given
// the minimum encoded size of one element. This is the allocation guard:
// a length field can never exceed what the section actually holds.
func (d *dec) sliceLen(minElem int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(minElem) > int64(d.remaining()) {
		d.fail("image: slice of %d elements exceeds the %d bytes left in its section", n, d.remaining())
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.sliceLen(1)
	return string(d.take(n))
}

func (d *dec) addr() fpa.Addr {
	exp := d.u8()
	man := d.u64()
	return fpa.Addr{Exp: exp, Mantissa: man}
}

func (d *dec) word() word.Word {
	t := d.u8()
	bits := d.u32()
	if t >= word.NumTags {
		d.fail("image: word tag %d out of range", t)
		return word.Word{}
	}
	return word.Word{Tag: word.Tag(t), Bits: bits}
}

func (d *dec) words() []word.Word {
	n := d.sliceLen(5)
	if n == 0 {
		return nil
	}
	raw := d.take(5 * n)
	if raw == nil {
		return nil
	}
	out := make([]word.Word, n)
	for i := range out {
		t := raw[i*5]
		if t >= word.NumTags {
			d.fail("image: word tag %d out of range", t)
			return nil
		}
		out[i] = word.Word{Tag: word.Tag(t), Bits: binary.LittleEndian.Uint32(raw[i*5+1:])}
	}
	return out
}

func (d *dec) u32s() []uint32 {
	n := d.sliceLen(4)
	if n == 0 {
		return nil
	}
	raw := d.take(4 * n)
	if raw == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	return out
}

func (d *dec) i32s() []int32 {
	n := d.sliceLen(4)
	if n == 0 {
		return nil
	}
	raw := d.take(4 * n)
	if raw == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// done verifies the section was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("image: %d trailing bytes in section", d.remaining())
	}
	return nil
}
