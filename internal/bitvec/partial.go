package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Partial is a fixed-length vector over {0,1,?}. Coordinate i holds '?'
// when the known mask bit is clear; otherwise it holds the value bit.
// Partials arise as Coalesce outputs (merged candidates with wildcards)
// and as player outputs before every coordinate is determined.
type Partial struct {
	n     int
	val   []uint64
	known []uint64
}

// Unknown is the byte Partial.Get returns for a '?' coordinate.
const Unknown byte = '?'

// NewPartial returns an all-? partial vector of length n.
func NewPartial(n int) Partial {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Partial{n: n, val: make([]uint64, words(n)), known: make([]uint64, words(n))}
}

// PartialOf lifts a total vector into a fully-known Partial.
func PartialOf(v Vector) Partial {
	p := NewPartial(v.n)
	copy(p.val, v.w)
	for i := range p.known {
		p.known[i] = ^uint64(0)
	}
	if len(p.known) > 0 {
		p.known[len(p.known)-1] = lastMask(p.n)
	}
	return p
}

// PartialFromString parses '0', '1' and '?' runes.
func PartialFromString(s string) (Partial, error) {
	p := NewPartial(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			p.SetBit(i, 0)
		case '1':
			p.SetBit(i, 1)
		case '?':
		default:
			return Partial{}, fmt.Errorf("bitvec: invalid character %q at %d", s[i], i)
		}
	}
	return p, nil
}

// Len returns the number of coordinates.
func (p Partial) Len() int { return p.n }

// PartialFromPlanes builds a Partial of length n adopting val and known
// as its planes (no copy). Both must have WordsFor(n) words. The planes
// are clamped to the invariants every constructor maintains — tail bits
// beyond n cleared, val ⊆ known — so a decoded wire payload cannot
// produce a Partial that Equal/Less/Merge would misorder.
func PartialFromPlanes(n int, val, known []uint64) Partial {
	if n < 0 || len(val) != words(n) || len(known) != words(n) {
		panic("bitvec: PartialFromPlanes word count mismatch")
	}
	p := Partial{n: n, val: val, known: known}
	if w := len(known); w > 0 {
		known[w-1] &= lastMask(n)
	}
	for i := range val {
		val[i] &= known[i]
	}
	return p
}

// Get returns 0, 1 or Unknown for coordinate i.
func (p Partial) Get(i int) byte {
	mask := uint64(1) << (uint(i) & 63)
	if p.known[i>>6]&mask == 0 {
		return Unknown
	}
	if p.val[i>>6]&mask != 0 {
		return 1
	}
	return 0
}

// Known reports whether coordinate i is determined.
func (p Partial) Known(i int) bool {
	return p.known[i>>6]>>(uint(i)&63)&1 == 1
}

// SetBit assigns a known value to coordinate i.
func (p Partial) SetBit(i int, bit byte) {
	mask := uint64(1) << (uint(i) & 63)
	p.known[i>>6] |= mask
	if bit != 0 {
		p.val[i>>6] |= mask
	} else {
		p.val[i>>6] &^= mask
	}
}

// SetUnknown marks coordinate i as '?'.
func (p Partial) SetUnknown(i int) {
	mask := uint64(1) << (uint(i) & 63)
	p.known[i>>6] &^= mask
	p.val[i>>6] &^= mask
}

// Clone returns a deep copy.
func (p Partial) Clone() Partial {
	c := Partial{n: p.n, val: make([]uint64, len(p.val)), known: make([]uint64, len(p.known))}
	copy(c.val, p.val)
	copy(c.known, p.known)
	return c
}

// KnownCount returns the number of non-? coordinates.
func (p Partial) KnownCount() int {
	c := 0
	for _, w := range p.known {
		c += bits.OnesCount64(w)
	}
	return c
}

// UnknownCount returns the number of ? coordinates.
func (p Partial) UnknownCount() int { return p.n - p.KnownCount() }

// Equal reports exact equality (same values and same ? positions).
func (p Partial) Equal(q Partial) bool {
	if p.n != q.n {
		return false
	}
	for i := range p.val {
		if p.val[i] != q.val[i] || p.known[i] != q.known[i] {
			return false
		}
	}
	return true
}

// DistKnown returns d~(p, q): the number of coordinates where both p and
// q are known and their values differ (paper Notation 3.2).
func (p Partial) DistKnown(q Partial) int {
	if p.n != q.n {
		panic("bitvec: DistKnown length mismatch")
	}
	d := 0
	for i := range p.val {
		both := p.known[i] & q.known[i]
		d += bits.OnesCount64((p.val[i] ^ q.val[i]) & both)
	}
	return d
}

// DistKnownVec returns d~(p, v) against a total vector v: differing
// coordinates among those known in p.
func (p Partial) DistKnownVec(v Vector) int {
	if p.n != v.n {
		panic("bitvec: DistKnownVec length mismatch")
	}
	d := 0
	for i := range p.val {
		d += bits.OnesCount64((p.val[i] ^ v.w[i]) & p.known[i])
	}
	return d
}

// Merge implements Step 4a of Coalesce: where p and q agree the common
// value is kept; where they disagree, or either is ?, the result is ?.
func (p Partial) Merge(q Partial) Partial {
	if p.n != q.n {
		panic("bitvec: Merge length mismatch")
	}
	m := NewPartial(p.n)
	for i := range p.val {
		agree := ^(p.val[i] ^ q.val[i])
		m.known[i] = p.known[i] & q.known[i] & agree
		m.val[i] = p.val[i] & m.known[i]
	}
	return m
}

// Fill returns a total vector with every ? coordinate replaced by bit.
func (p Partial) Fill(bit byte) Vector {
	v := Vector{n: p.n, w: make([]uint64, len(p.val))}
	copy(v.w, p.val)
	if bit != 0 {
		for i := range v.w {
			v.w[i] |= ^p.known[i]
		}
		v.clampLast()
	}
	return v
}

// Overlay returns a copy of p whose ? coordinates are taken from src.
func (p Partial) Overlay(src Vector) Vector {
	if p.n != src.n {
		panic("bitvec: Overlay length mismatch")
	}
	v := Vector{n: p.n, w: make([]uint64, len(p.val))}
	for i := range v.w {
		v.w[i] = p.val[i]&p.known[i] | src.w[i]&^p.known[i]
	}
	v.clampLast()
	return v
}

// Project returns the restriction of p to the coordinate set idx.
func (p Partial) Project(idx []int) Partial {
	q := NewPartial(len(idx))
	for j, i := range idx {
		if b := p.Get(i); b != Unknown {
			q.SetBit(j, b)
		}
	}
	return q
}

// Key returns a map key; equal keys iff Equal.
func (p Partial) Key() string {
	return string(p.AppendKey(make([]byte, 0, len(p.val)*16+2)))
}

// AppendKey appends the Key bytes to buf and returns it, letting tally
// loops reuse one buffer instead of allocating a string per vector.
func (p Partial) AppendKey(buf []byte) []byte {
	buf = append(buf, byte(p.n), byte(p.n>>8))
	for i := range p.val {
		w, k := p.val[i], p.known[i]
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56),
			byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
			byte(k>>32), byte(k>>40), byte(k>>48), byte(k>>56))
	}
	return buf
}

// Less imposes a total lexicographic order with 0 < 1 < ?, giving the
// deterministic tie-breaking Coalesce and Select need.
//
// Word-parallel: under the val ⊆ known invariant two coordinates rank
// equal iff their val bits and known bits both agree, so the first
// rank difference is the lowest set bit of (valᵖ⊕valᵠ)|(knownᵖ⊕knownᵠ)
// in the first word where that is nonzero.
func (p Partial) Less(q Partial) bool {
	if p.n != q.n {
		panic("bitvec: Less length mismatch")
	}
	for i := range p.val {
		x := (p.val[i] ^ q.val[i]) | (p.known[i] ^ q.known[i])
		if x == 0 {
			continue
		}
		bit := x & -x
		if p.known[i]&bit == 0 {
			return false // p is '?' (rank 2), the highest rank
		}
		if q.known[i]&bit == 0 {
			return true // p known, q is '?'
		}
		return p.val[i]&bit == 0 // both known: 0 < 1
	}
	return false
}

// String renders the partial vector with '0', '1' and '?' runes.
func (p Partial) String() string {
	var b strings.Builder
	b.Grow(p.n)
	for i := 0; i < p.n; i++ {
		switch p.Get(i) {
		case Unknown:
			b.WriteByte('?')
		case 1:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}
