// Package wire implements the binary encoding used by every BlobSeer
// message. It is a small, allocation-conscious, hand-rolled codec:
// fixed-width little-endian integers plus length-prefixed byte strings.
// Nothing on the hot path goes through reflection.
//
// An Encoder appends to an internal buffer; a Decoder consumes a buffer and
// latches the first error so call sites can decode a whole message and check
// Err() once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is reported when a Decoder runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is reported when a length prefix exceeds MaxChunk.
var ErrTooLarge = errors.New("wire: length prefix too large")

// MaxChunk bounds any single length-prefixed field. It exists so a corrupt
// or malicious length prefix cannot make a Decoder allocate unbounded
// memory.
const MaxChunk = 1 << 30

// Encoder serializes values into a growing byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded message. The slice aliases the Encoder's
// internal buffer and is valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate discards everything encoded after the first n bytes, retaining
// capacity. It is how a frame builder rolls back a partially encoded body.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// SetU64 overwrites the little-endian uint64 at offset off, which must
// lie within the bytes already encoded: a field filled in after the fact.
func (e *Encoder) SetU64(off int, v uint64) {
	binary.LittleEndian.PutUint64(e.buf[off:off+8], v)
}

// BeginBytes opens a length-prefixed byte field whose contents the caller
// encodes in place, instead of building them elsewhere and copying them
// in with PutBytes. It returns the offset at which the contents start;
// EndBytes(start) closes the field. The result decodes with Bytes.
func (e *Encoder) BeginBytes() (start int) {
	e.PutU32(0)
	return len(e.buf)
}

// EndBytes closes the field BeginBytes opened at start, filling in its
// length prefix with everything encoded since.
func (e *Encoder) EndBytes(start int) {
	binary.LittleEndian.PutUint32(e.buf[start-4:start], uint32(len(e.buf)-start))
}

// PutU8 appends a single byte.
func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}

// PutU16 appends a little-endian uint16.
func (e *Encoder) PutU16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// PutU32 appends a little-endian uint32.
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutU64 appends a little-endian uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutI64 appends a little-endian int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutF64 appends an IEEE-754 float64.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutBytes appends a u32 length prefix followed by the raw bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.PutRaw(b)
}

// PutRaw appends b with no length prefix.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutString appends a u32 length prefix followed by the string bytes.
func (e *Encoder) PutString(s string) {
	e.PutU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder consumes a byte buffer produced by an Encoder. The first decode
// failure latches into err; subsequent reads return zero values.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The Decoder does not copy buf:
// slices returned by Bytes alias it.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered while decoding, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// U8 decodes a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a bool encoded as one byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 decodes a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 decodes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 decodes a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 decodes an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes decodes a u32-length-prefixed byte slice without copying it.
//
// Aliasing: the returned slice points into the Decoder's buffer and is
// only as stable as that buffer. Its capacity is capped at its length, so
// appending to it reallocates rather than overwriting the fields that
// follow it. Decoding an RPC frame in place is safe because every frame a
// transport delivers is a fresh allocation owned by the receiver (see
// rpc.Conn); a caller decoding a buffer it will reuse must use BytesCopy.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxChunk {
		d.err = ErrTooLarge
		return nil
	}
	return d.take(int(n))
}

// BytesCopy decodes a u32-length-prefixed byte slice into fresh memory.
func (d *Decoder) BytesCopy() []byte {
	b := d.Bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String decodes a u32-length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes()
	if b == nil {
		return ""
	}
	return string(b)
}

// Message is implemented by every RPC payload type in the system.
type Message interface {
	// Encode appends the message body to enc.
	Encode(enc *Encoder)
	// Decode consumes the message body from dec.
	Decode(dec *Decoder)
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte {
	enc := NewEncoder(64)
	m.Encode(enc)
	return enc.Bytes()
}

// Unmarshal decodes buf into m, returning a descriptive error on failure.
func Unmarshal(buf []byte, m Message) error {
	dec := NewDecoder(buf)
	m.Decode(dec)
	if err := dec.Err(); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", m, err)
	}
	return nil
}
