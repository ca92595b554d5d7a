package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"tellme/internal/bitvec"
)

// Binary payload primitives. Everything is little-endian; counts and
// non-negative integers are uvarints; bulk numeric data is packed
// fixed-width little-endian arrays so encode/decode is a bounds check
// plus a copy. Slices that distinguish nil from empty on the JSON side
// (voters, vals, batch objects, reply lists) are length-prefixed with
// count+1 — prefix 0 means a nil slice — so a binary round trip
// preserves exactly what a JSON round trip preserves and the
// differential fuzz oracle can require deep equality.

// AppendUint appends a uvarint.
func AppendUint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendBool appends one byte (0 or 1).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a uvarint length followed by the raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendInts appends a non-negative int slice: count+1 (0 = nil), then
// packed uint32 little-endian elements. Values must fit in uint32
// (players and objects are bounded by N and M, far below 2³²); an
// out-of-range value panics — it cannot arise from a validated board.
func AppendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return AppendUint(dst, 0)
	}
	dst = AppendUint(dst, uint64(len(xs))+1)
	for _, x := range xs {
		if x < 0 || int64(x) > math.MaxUint32 {
			panic(fmt.Sprintf("wire: int %d outside uint32 range", x))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

// AppendUint32s appends a uint32 slice: count+1 (0 = nil), then packed
// little-endian elements.
func AppendUint32s(dst []byte, xs []uint32) []byte {
	if xs == nil {
		return AppendUint(dst, 0)
	}
	dst = AppendUint(dst, uint64(len(xs))+1)
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, x)
	}
	return dst
}

// appendWords appends packed uint64 words without a count prefix (the
// caller's bit length implies the word count).
func appendWords(dst []byte, ws []uint64) []byte {
	for _, w := range ws {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AppendVector appends a total vector: uvarint bit length, then its
// packed words — the in-memory bit-plane layout, copied straight out.
func AppendVector(dst []byte, v bitvec.Vector) []byte {
	dst = AppendUint(dst, uint64(v.Len()))
	return appendWords(dst, v.Words())
}

// AppendPartial appends a partial vector: uvarint bit length, then the
// packed value plane and known plane back to back.
func AppendPartial(dst []byte, p bitvec.Partial) []byte {
	dst = AppendUint(dst, uint64(p.Len()))
	val, known := p.Planes()
	dst = appendWords(dst, val)
	return appendWords(dst, known)
}

// Reader decodes a binary payload with a sticky error: after any
// malformed field every further read returns zero values, so message
// decoders read fields unconditionally and the codec checks Close once.
// All returned slices and strings are copies — nothing aliases the
// input buffer, which goes back to the pool right after decoding.
type Reader struct {
	data []byte
	err  error
}

// NewReader wraps a binary payload (after the frame header).
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the payload was fully consumed and returns the sticky
// error (trailing garbage is an error: a length-prefixed format has no
// legitimate tail).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.data))
	}
	return nil
}

// Fail sets the sticky error unless one is already set. Message
// decoders call it on a value no encoder writes, such as an unknown
// tag.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
		r.data = nil
	}
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Fail("truncated uvarint")
		return 0
	}
	r.data = r.data[n:]
	return x
}

// Int reads a uvarint and narrows it to a non-negative int.
func (r *Reader) Int() int {
	x := r.Uint()
	if x > math.MaxInt32 && uint64(int(x)) != x {
		r.Fail("integer %d overflows int", x)
		return 0
	}
	return int(x)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 1 {
		r.Fail("truncated byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// Bool reads one byte as a bool (anything nonzero is true).
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.Fail("string length %d exceeds %d remaining bytes", n, len(r.data))
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// count reads a count+1 prefix: (0, false) for nil, (k, true) for a
// slice of length k whose elements take elemSize bytes each — the size
// check up front keeps a hostile count from allocating unboundedly.
func (r *Reader) count(elemSize int) (int, bool) {
	c := r.Uint()
	if r.err != nil || c == 0 {
		return 0, false
	}
	n := c - 1
	if n > uint64(len(r.data))/uint64(elemSize) && elemSize > 0 {
		r.Fail("count %d exceeds %d remaining bytes", n, len(r.data))
		return 0, false
	}
	return int(n), true
}

// Ints reads a slice written by AppendInts (nil for prefix 0).
func (r *Reader) Ints() []int {
	n, ok := r.count(4)
	if !ok {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(binary.LittleEndian.Uint32(r.data[4*i:]))
	}
	r.data = r.data[4*n:]
	return xs
}

// Uint32s reads a slice written by AppendUint32s (nil for prefix 0).
func (r *Reader) Uint32s() []uint32 {
	n, ok := r.count(4)
	if !ok {
		return nil
	}
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint32(r.data[4*i:])
	}
	r.data = r.data[4*n:]
	return xs
}

// words reads n packed uint64 words.
func (r *Reader) words(n int) []uint64 {
	if r.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(r.data)) {
		r.Fail("%d plane words exceed %d remaining bytes", n, len(r.data))
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(r.data[8*i:])
	}
	r.data = r.data[8*n:]
	return ws
}

// Vector reads a total vector written by AppendVector.
func (r *Reader) Vector() bitvec.Vector {
	n := r.Int()
	ws := r.words(bitvec.WordsFor(n))
	if r.err != nil {
		return bitvec.Vector{}
	}
	return bitvec.VectorFromWords(n, ws)
}

// Partial reads a partial vector written by AppendPartial. The
// constructor clamps the planes (tail bits beyond the length, value
// bits without their known bit), so a hostile payload cannot produce a
// Partial violating the val ⊆ known invariant.
func (r *Reader) Partial() bitvec.Partial {
	n := r.Int()
	words := bitvec.WordsFor(n)
	val := r.words(words)
	known := r.words(words)
	if r.err != nil {
		return bitvec.Partial{}
	}
	return bitvec.PartialFromPlanes(n, val, known)
}
