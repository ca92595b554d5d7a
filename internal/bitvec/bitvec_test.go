package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tellme/internal/rng"
)

func TestNewIsZero(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("coordinate %d not zero", i)
		}
	}
	if v.OnesCount() != 0 {
		t.Fatalf("OnesCount = %d", v.OnesCount())
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(200)
	v.Set(0, 1)
	v.Set(63, 1)
	v.Set(64, 1)
	v.Set(199, 1)
	for _, i := range []int{0, 63, 64, 199} {
		if v.Get(i) != 1 {
			t.Fatalf("coordinate %d not set", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Fatalf("OnesCount = %d, want 4", v.OnesCount())
	}
	v.Flip(63)
	if v.Get(63) != 0 {
		t.Fatal("Flip did not clear bit 63")
	}
	v.Set(0, 0)
	if v.Get(0) != 0 {
		t.Fatal("Set(0,0) did not clear")
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	s := "0110100111010001"
	v, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != s {
		t.Fatalf("round trip: %q != %q", v.String(), s)
	}
	if _, err := FromString("01x"); err == nil {
		t.Fatal("expected error on invalid character")
	}
}

func TestDistBasic(t *testing.T) {
	a, _ := FromString("0000")
	b, _ := FromString("0110")
	if d := a.Dist(b); d != 2 {
		t.Fatalf("Dist = %d, want 2", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestDistLargeCrossWord(t *testing.T) {
	r := rng.New(1)
	a := Random(r, 1000)
	b := a.Clone()
	flips := []int{0, 63, 64, 127, 128, 500, 999}
	for _, i := range flips {
		b.Flip(i)
	}
	if d := a.Dist(b); d != len(flips) {
		t.Fatalf("Dist = %d, want %d", d, len(flips))
	}
}

func TestEqualAndClone(t *testing.T) {
	r := rng.New(2)
	a := Random(r, 321)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Flip(320)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(New(100)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestCopyFrom(t *testing.T) {
	r := rng.New(3)
	a := Random(r, 100)
	b := New(100)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestProjectAndDistOn(t *testing.T) {
	a, _ := FromString("010101")
	b, _ := FromString("011001")
	idx := []int{1, 2, 3}
	pa := a.Project(idx) // 101
	pb := b.Project(idx) // 110
	if pa.String() != "101" || pb.String() != "110" {
		t.Fatalf("projections %q %q", pa, pb)
	}
	// The paper's dist|S is the projections' distance: a and b differ
	// at 2 and 3 of idx, and nowhere else.
	if d := pa.Dist(pb); d != 2 {
		t.Fatalf("distance on idx = %d, want 2", d)
	}
	if rest := []int{0, 1, 4, 5}; !a.Project(rest).Equal(b.Project(rest)) {
		t.Fatal("projections differ on agreeing coordinates")
	}
}

func TestFlipRandomExactCount(t *testing.T) {
	r := rng.New(4)
	for _, k := range []int{0, 1, 7, 64, 100} {
		a := Random(r, 100)
		b := a.Clone()
		b.FlipRandom(r, k)
		if d := a.Dist(b); d != k {
			t.Fatalf("FlipRandom(%d) changed %d coordinates", k, d)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	r := rng.New(6)
	seen := map[string]Vector{}
	for i := 0; i < 500; i++ {
		v := Random(r, 128)
		if prev, ok := seen[v.Key()]; ok && !prev.Equal(v) {
			t.Fatal("key collision between distinct vectors")
		}
		seen[v.Key()] = v
	}
	a, _ := FromString("01")
	b, _ := FromString("010")
	if a.Key() == b.Key() {
		t.Fatal("different lengths share a key")
	}
}

func TestLessLexicographic(t *testing.T) {
	a, _ := FromString("010")
	b, _ := FromString("011")
	c, _ := FromString("100")
	if !a.Less(b) || !a.Less(c) || !b.Less(c) {
		t.Fatal("lexicographic order wrong")
	}
	if b.Less(a) || a.Less(a) {
		t.Fatal("Less not a strict order")
	}
}

// --- property-based tests ---

// qvec adapts Vector for testing/quick generation.
type qvec struct{ V Vector }

func (qvec) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(300) + 1
	g := rng.New(r.Uint64())
	return reflect.ValueOf(qvec{V: Random(g, n)})
}

// sameLen coerces u to the length of v by regeneration, for pairwise laws.
func regen(r *rand.Rand, n int) Vector {
	g := rng.New(r.Uint64())
	return Random(g, n)
}

func TestQuickDistanceMetricLaws(t *testing.T) {
	f := func(a qvec, seed1, seed2 int64) bool {
		n := a.V.Len()
		b := regen(rand.New(rand.NewSource(seed1)), n)
		c := regen(rand.New(rand.NewSource(seed2)), n)
		dab, dba := a.V.Dist(b), b.Dist(a.V)
		if dab != dba {
			return false // symmetry
		}
		if a.V.Dist(a.V) != 0 {
			return false // identity
		}
		if dab == 0 && !a.V.Equal(b) {
			return false // identity of indiscernibles
		}
		// triangle inequality
		return a.V.Dist(c) <= dab+b.Dist(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistEqualsNaive(t *testing.T) {
	f := func(a qvec, seed int64) bool {
		b := regen(rand.New(rand.NewSource(seed)), a.V.Len())
		naive := 0
		for i := 0; i < a.V.Len(); i++ {
			if a.V.Get(i) != b.Get(i) {
				naive++
			}
		}
		return a.V.Dist(b) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(a qvec) bool {
		v, err := FromString(a.V.String())
		return err == nil && v.Equal(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectPreservesDist(t *testing.T) {
	f := func(a qvec, seed int64) bool {
		n := a.V.Len()
		r := rand.New(rand.NewSource(seed))
		b := regen(r, n)
		// random index subset
		var idx []int
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
		d := 0
		for _, i := range idx {
			if a.V.Get(i) != b.Get(i) {
				d++
			}
		}
		return a.V.Project(idx).Dist(b.Project(idx)) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyEquality(t *testing.T) {
	f := func(a qvec, seed int64) bool {
		b := regen(rand.New(rand.NewSource(seed)), a.V.Len())
		return (a.V.Key() == b.Key()) == a.V.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDist1024(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 1024)
	y := Random(r, 1024)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.Dist(y)
	}
	_ = sink
}

func BenchmarkProject(b *testing.B) {
	r := rng.New(1)
	x := Random(r, 4096)
	idx := make([]int, 512)
	for i := range idx {
		idx[i] = r.Intn(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Project(idx)
	}
}
