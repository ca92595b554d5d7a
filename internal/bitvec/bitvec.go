// Package bitvec implements the packed binary and ternary vectors that
// represent preference vectors in the recommendation system.
//
// A Vector is an element of {0,1}^n, stored 64 coordinates per word. A
// Partial is an element of {0,1,?}^n (the paper's vectors with "don't
// care" entries, produced by Coalesce and by partially-informed players):
// it carries a value plane and a "known" mask plane.
//
// Distances follow the paper's notation: Dist is the Hamming distance
// dist(x,y); DistKnown is d~(u,v), the number of differing coordinates
// where both vectors have non-? entries (Notation 3.2).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"

	"tellme/internal/rng"
)

// Vector is a fixed-length vector over {0,1}. The zero value is an empty
// vector; construct with New or the From* helpers.
type Vector struct {
	n int
	w []uint64
}

func words(n int) int { return (n + 63) / 64 }

// lastMask returns the valid-bit mask for the final word of an n-bit vector.
func lastMask(n int) uint64 {
	if r := n % 64; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// New returns an all-zero vector of length n.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vector{n: n, w: make([]uint64, words(n))}
}

// FromString parses a string of '0' and '1' runes into a Vector.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at %d", s[i], i)
		}
	}
	return v, nil
}

// Random returns a uniformly random vector of length n.
func Random(r *rng.Rand, n int) Vector {
	v := New(n)
	for i := range v.w {
		v.w[i] = r.Uint64()
	}
	v.clampLast()
	return v
}

func (v *Vector) clampLast() {
	if len(v.w) > 0 {
		v.w[len(v.w)-1] &= lastMask(v.n)
	}
}

// Len returns the number of coordinates.
func (v Vector) Len() int { return v.n }

// VectorFromWords builds a Vector of length n adopting w as its packed
// words (no copy). len(w) must be WordsFor(n); bits beyond n in the
// last word are cleared, so a decoded wire payload cannot smuggle tail
// bits into Equal/Key comparisons.
func VectorFromWords(n int, w []uint64) Vector {
	if n < 0 || len(w) != words(n) {
		panic("bitvec: VectorFromWords word count mismatch")
	}
	v := Vector{n: n, w: w}
	v.clampLast()
	return v
}

// Get returns coordinate i as 0 or 1.
func (v Vector) Get(i int) byte {
	return byte(v.w[i>>6] >> (uint(i) & 63) & 1)
}

// Set assigns coordinate i to bit (0 or 1).
func (v Vector) Set(i int, bit byte) {
	mask := uint64(1) << (uint(i) & 63)
	if bit != 0 {
		v.w[i>>6] |= mask
	} else {
		v.w[i>>6] &^= mask
	}
}

// Flip toggles coordinate i.
func (v Vector) Flip(i int) {
	v.w[i>>6] ^= uint64(1) << (uint(i) & 63)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := Vector{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// CopyFrom overwrites v with src. Lengths must match.
func (v Vector) CopyFrom(src Vector) {
	if v.n != src.n {
		panic("bitvec: CopyFrom length mismatch")
	}
	copy(v.w, src.w)
}

// Equal reports whether v and u are identical vectors.
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.w {
		if w != u.w[i] {
			return false
		}
	}
	return true
}

// Dist returns the Hamming distance between v and u.
func (v Vector) Dist(u Vector) int {
	if v.n != u.n {
		panic("bitvec: Dist length mismatch")
	}
	d := 0
	for i, w := range v.w {
		d += bits.OnesCount64(w ^ u.w[i])
	}
	return d
}

// OnesCount returns the number of 1 coordinates.
func (v Vector) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Project returns the |idx|-length vector (v[idx[0]], v[idx[1]], ...),
// the paper's projection v|S.
func (v Vector) Project(idx []int) Vector {
	p := New(len(idx))
	for j, i := range idx {
		if v.Get(i) == 1 {
			p.Set(j, 1)
		}
	}
	return p
}

// FlipRandom flips k distinct uniformly random coordinates of v in place.
// It panics if k > Len().
func (v Vector) FlipRandom(r *rng.Rand, k int) {
	if k > v.n {
		panic("bitvec: FlipRandom k exceeds length")
	}
	// Floyd's algorithm for a uniform k-subset of [0, n).
	chosen := make(map[int]struct{}, k)
	for j := v.n - k; j < v.n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		v.Flip(t)
	}
}

// String renders the vector as a string of '0' and '1' runes.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		b.WriteByte('0' + v.Get(i))
	}
	return b.String()
}

// Key returns a compact string usable as a map key for exact-vote
// counting. Two vectors have equal keys iff they are equal.
func (v Vector) Key() string {
	buf := make([]byte, 0, len(v.w)*8+2)
	buf = append(buf, byte(v.n), byte(v.n>>8))
	for _, w := range v.w {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(buf)
}

// Less imposes the paper's lexicographic order on equal-length vectors
// (coordinate 0 is the most significant position). The first differing
// coordinate is the lowest set bit of the first nonzero xor word —
// coordinates are stored LSB-first — so the scan is word-parallel.
func (v Vector) Less(u Vector) bool {
	if v.n != u.n {
		panic("bitvec: Less length mismatch")
	}
	for i, w := range v.w {
		if x := w ^ u.w[i]; x != 0 {
			return w&(x&-x) == 0
		}
	}
	return false
}
