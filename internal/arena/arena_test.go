package arena

import (
	"testing"
)

func TestMakeZeroedAndDisjoint(t *testing.T) {
	var s Slab[int]
	a := s.Make(10)
	b := s.Make(10)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lengths = %d, %d, want 10, 10", len(a), len(b))
	}
	for i := range a {
		a[i] = i + 1
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("b not zeroed: %v", b)
		}
	}
	for i, v := range a {
		if v != i+1 {
			t.Fatalf("a clobbered by b's Make: %v", a)
		}
	}
	if cap(a) != len(a) {
		t.Fatalf("cap(a) = %d, want %d (full slice expression)", cap(a), len(a))
	}
}

func TestMakeZeroesRecycledMemory(t *testing.T) {
	var s Slab[int]
	m := s.Mark()
	a := s.Make(8)
	for i := range a {
		a[i] = 99
	}
	s.Release(m)
	b := s.Make(8)
	for _, v := range b {
		if v != 0 {
			t.Fatalf("recycled memory not zeroed: %v", b)
		}
	}
}

// TestMakeZeroesAcrossWatermark exercises a Make that straddles the
// dirty watermark: its prefix is recycled (must be cleared) while its
// suffix is pristine block memory (skipped by the clear). Both halves
// must read as zero.
func TestMakeZeroesAcrossWatermark(t *testing.T) {
	var s Slab[int]
	m := s.Mark()
	a := s.Make(8)
	for i := range a {
		a[i] = 99
	}
	s.Release(m)
	b := s.Make(16) // [0,8) recycled, [8,16) pristine
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %d, want 0 (watermark clear missed)", i, v)
		}
	}
}

// TestRawSkipsClearing verifies Raw hands back recycled contents as-is
// (that is the point) and that a later Make over the same region still
// zeroes it: Raw must advance the dirty watermark.
func TestRawSkipsClearing(t *testing.T) {
	var s Slab[int]
	m := s.Mark()
	a := s.Make(8)
	for i := range a {
		a[i] = 7
	}
	s.Release(m)
	raw := s.Raw(8)
	if raw[0] != 7 {
		t.Fatalf("Raw cleared recycled memory: %v", raw)
	}
	s.Release(m)
	// Grow past the old footprint: if Raw failed to raise the
	// watermark, the dirtied suffix would leak through this Make.
	b := s.Make(8)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %d, want 0 (Raw did not advance watermark)", i, v)
		}
	}
}

// TestCopyOverRecycledMemory checks Copy's no-clear fast path against a
// recycled, dirtied region.
func TestCopyOverRecycledMemory(t *testing.T) {
	var s Slab[uint32]
	m := s.Mark()
	a := s.Make(4)
	for i := range a {
		a[i] = 0xdead
	}
	s.Release(m)
	got := s.Copy([]uint32{1, 2, 3, 4})
	for i, want := range []uint32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("Copy over recycled memory = %v", got)
		}
	}
}

func TestMarkReleaseLIFO(t *testing.T) {
	var s Slab[byte]
	outer := s.Mark()
	x := s.Make(100)
	inner := s.Mark()
	s.Make(minBlock * 3) // force extra blocks
	s.Release(inner)
	y := s.Make(50)
	// x and y must not overlap: y comes after inner's mark.
	x[99] = 7
	y[0] = 9
	if x[99] != 7 {
		t.Fatal("inner region overlapped outer allocation")
	}
	s.Release(outer)
	if got := s.Mark(); got != outer {
		t.Fatalf("Release did not restore position: %v != %v", got, outer)
	}
}

func TestLargeAllocationGetsOwnBlock(t *testing.T) {
	var s Slab[uint64]
	big := s.Make(minBlock * 10)
	if len(big) != minBlock*10 {
		t.Fatalf("len = %d", len(big))
	}
	// Allocations continue to work afterwards.
	small := s.Make(3)
	small[0] = 1
	if big[0] != 0 {
		t.Fatal("big clobbered")
	}
}

func TestBlocksRetainedAcrossReset(t *testing.T) {
	var s Slab[int]
	s.Make(minBlock * 4)
	nblocks := len(s.blocks)
	s.Reset()
	s.Make(minBlock * 4)
	if len(s.blocks) != nblocks {
		t.Fatalf("Reset dropped blocks: %d != %d", len(s.blocks), nblocks)
	}
}

func TestCopy(t *testing.T) {
	var s Slab[uint32]
	src := []uint32{1, 2, 3}
	got := s.Copy(src)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Copy = %v", got)
	}
	got[0] = 9
	if src[0] != 1 {
		t.Fatal("Copy aliased src")
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Make(-1) did not panic")
		}
	}()
	var s Slab[int]
	s.Make(-1)
}

func TestArenaMarkRelease(t *testing.T) {
	var a Arena
	m := a.Mark()
	ints := a.Ints(5)
	words := a.Words(5)
	bools := a.Bools(5)
	ints[0], words[0], bools[0] = 1, 1, true
	a.Release(m)
	if got := a.Mark(); got != m {
		t.Fatalf("Release did not restore arena: %+v != %+v", got, m)
	}
	// Fresh allocations after release are zeroed.
	if v := a.Ints(5); v[0] != 0 {
		t.Fatal("ints not zeroed after release")
	}
	if v := a.Bools(5); v[0] {
		t.Fatal("bools not zeroed after release")
	}
	if v := a.CopyInts([]int{4, 5}); v[0] != 4 || v[1] != 5 {
		t.Fatalf("CopyInts = %v", v)
	}
}

// TestWarmSlabDoesNotAllocate verifies the central property: after one
// Mark/Release cycle at a given footprint, subsequent cycles perform no
// heap allocation.
func TestWarmSlabDoesNotAllocate(t *testing.T) {
	var a Arena
	cycle := func() {
		m := a.Mark()
		for i := 0; i < 16; i++ {
			_ = a.Ints(100)
			_ = a.Words(64)
			_ = a.Bools(32)
		}
		a.Release(m)
	}
	cycle() // warm
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warm cycle allocates %v times per run, want 0", n)
	}
}
