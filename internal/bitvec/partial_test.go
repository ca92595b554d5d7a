package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tellme/internal/rng"
)

func TestPartialNewAllUnknown(t *testing.T) {
	p := NewPartial(70)
	for i := 0; i < 70; i++ {
		if p.Get(i) != Unknown || p.Known(i) {
			t.Fatalf("coordinate %d not ?", i)
		}
	}
	if p.UnknownCount() != 70 || p.KnownCount() != 0 {
		t.Fatalf("counts: known=%d unknown=%d", p.KnownCount(), p.UnknownCount())
	}
}

func TestPartialSetGet(t *testing.T) {
	p := NewPartial(130)
	p.SetBit(0, 1)
	p.SetBit(64, 0)
	p.SetBit(129, 1)
	if p.Get(0) != 1 || p.Get(64) != 0 || p.Get(129) != 1 {
		t.Fatal("SetBit/Get mismatch")
	}
	if p.Get(1) != Unknown {
		t.Fatal("unset coordinate should be ?")
	}
	p.SetUnknown(0)
	if p.Get(0) != Unknown {
		t.Fatal("SetUnknown failed")
	}
	if p.KnownCount() != 2 {
		t.Fatalf("KnownCount = %d, want 2", p.KnownCount())
	}
}

func TestPartialOf(t *testing.T) {
	v, _ := FromString("0110")
	p := PartialOf(v)
	if p.UnknownCount() != 0 {
		t.Fatalf("PartialOf has %d unknowns", p.UnknownCount())
	}
	if p.String() != "0110" {
		t.Fatalf("got %q", p.String())
	}
}

func TestPartialFromStringRoundTrip(t *testing.T) {
	s := "01?10??1"
	p, err := PartialFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != s {
		t.Fatalf("round trip %q != %q", p.String(), s)
	}
	if _, err := PartialFromString("012"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDistKnown(t *testing.T) {
	a, _ := PartialFromString("01?1")
	b, _ := PartialFromString("11?0")
	// positions: 0 differs, 1 agrees, 2 both ?, 3 differs → d~ = 2
	if d := a.DistKnown(b); d != 2 {
		t.Fatalf("DistKnown = %d, want 2", d)
	}
	c, _ := PartialFromString("1???")
	// only position 0 both-known, differs
	if d := a.DistKnown(c); d != 1 {
		t.Fatalf("DistKnown = %d, want 1", d)
	}
}

func TestDistKnownVec(t *testing.T) {
	p, _ := PartialFromString("01?1")
	v, _ := FromString("1111")
	// known coords 0,1,3: values 0,1,1 vs 1,1,1 → 1 difference
	if d := p.DistKnownVec(v); d != 1 {
		t.Fatalf("DistKnownVec = %d, want 1", d)
	}
}

func TestMergeSemantics(t *testing.T) {
	a, _ := PartialFromString("0011??")
	b, _ := PartialFromString("0110?1")
	m := a.Merge(b)
	// pos0 agree 0; pos1 disagree → ?; pos2 agree 1; pos3 disagree → ?;
	// pos4 both ? → ?; pos5 a=? → ?
	if m.String() != "0?1???" {
		t.Fatalf("Merge = %q", m.String())
	}
}

func TestFillAndOverlay(t *testing.T) {
	p, _ := PartialFromString("1?0?")
	if p.Fill(0).String() != "1000" {
		t.Fatalf("Fill(0) = %q", p.Fill(0).String())
	}
	if p.Fill(1).String() != "1101" {
		t.Fatalf("Fill(1) = %q", p.Fill(1).String())
	}
	src, _ := FromString("0110")
	if p.Overlay(src).String() != "1100" {
		t.Fatalf("Overlay = %q", p.Overlay(src).String())
	}
}

func TestPartialProject(t *testing.T) {
	p, _ := PartialFromString("1?0?1")
	q := p.Project([]int{1, 2, 4})
	if q.String() != "?01" {
		t.Fatalf("Project = %q", q.String())
	}
}

func TestPartialKeyAndEqual(t *testing.T) {
	a, _ := PartialFromString("01?")
	b, _ := PartialFromString("01?")
	c, _ := PartialFromString("010")
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("equal partials have different keys")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Fatal("? and 0 conflated")
	}
}

func TestPartialLessOrder(t *testing.T) {
	z, _ := PartialFromString("0")
	o, _ := PartialFromString("1")
	u, _ := PartialFromString("?")
	if !z.Less(o) || !o.Less(u) || !z.Less(u) {
		t.Fatal("order 0 < 1 < ? violated")
	}
	if u.Less(u) {
		t.Fatal("Less not strict")
	}
}

// qpart adapts Partial for testing/quick.
type qpart struct{ P Partial }

func (qpart) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 1
	g := rng.New(r.Uint64())
	p := NewPartial(n)
	for i := 0; i < n; i++ {
		switch g.Intn(3) {
		case 0:
			p.SetBit(i, 0)
		case 1:
			p.SetBit(i, 1)
		}
	}
	return reflect.ValueOf(qpart{P: p})
}

func regenPartial(r *rand.Rand, n int) Partial {
	g := rng.New(r.Uint64())
	p := NewPartial(n)
	for i := 0; i < n; i++ {
		switch g.Intn(3) {
		case 0:
			p.SetBit(i, 0)
		case 1:
			p.SetBit(i, 1)
		}
	}
	return p
}

func TestQuickMergeLaws(t *testing.T) {
	f := func(a qpart, seed int64) bool {
		b := regenPartial(rand.New(rand.NewSource(seed)), a.P.Len())
		m := a.P.Merge(b)
		mb := b.Merge(a.P)
		if !m.Equal(mb) {
			return false // commutativity
		}
		if !a.P.Merge(a.P).Equal(a.P) {
			return false // idempotence
		}
		// merged vector never disagrees with either parent on known coords
		return m.DistKnown(a.P) == 0 && m.DistKnown(b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistKnownSymmetryAndBound(t *testing.T) {
	f := func(a qpart, seed int64) bool {
		b := regenPartial(rand.New(rand.NewSource(seed)), a.P.Len())
		d := a.P.DistKnown(b)
		if d != b.DistKnown(a.P) {
			return false
		}
		return d <= a.P.Len() && a.P.DistKnown(a.P) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFillConsistentWithKnown(t *testing.T) {
	f := func(a qpart) bool {
		v0, v1 := a.P.Fill(0), a.P.Fill(1)
		// fills agree with p on known coords, so d~ must be 0
		if a.P.DistKnownVec(v0) != 0 || a.P.DistKnownVec(v1) != 0 {
			return false
		}
		return v0.Dist(v1) == a.P.UnknownCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartialStringRoundTrip(t *testing.T) {
	f := func(a qpart) bool {
		p, err := PartialFromString(a.P.String())
		return err == nil && p.Equal(a.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistKnown1024(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := regenPartial(r, 1024)
	y := regenPartial(r, 1024)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.DistKnown(y)
	}
	_ = sink
}
