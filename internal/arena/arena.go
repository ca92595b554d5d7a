// Package arena implements region-style slab allocation for the
// per-round scratch buffers of the simulator's hot paths.
//
// A Slab hands out slices carved from large blocks and never frees
// individual allocations; instead a caller takes a Mark before a region
// of work and Releases back to it afterwards, recycling every slice
// allocated in between. Blocks are retained across Release, so a warm
// slab stops allocating entirely: after the first epoch every Make is a
// bounds check, an offset bump and a clear of just the recycled prefix
// (each block tracks a dirty watermark, so memory still pristine from
// the block's make is never re-cleared).
//
// # Ownership rules (DESIGN.md §11)
//
// A Slab/Arena is single-goroutine: each probe.Player owns one (player
// phase bodies run on one goroutine per player), and core.Env owns one
// for the coordinator loops that run between phases. Handing an
// arena-backed slice to another goroutine is safe only within the
// phase-barrier discipline the simulator already enforces (the
// coordinator allocates before the phase, workers write disjoint rows,
// the barrier publishes the writes back). A billboard topic owns a
// third kind: a write-once slab, never marked or released, that backs
// the topic's value postings under the topic lock and goes to the
// garbage collector with the topic.
//
// Escapes are forbidden: a slice obtained after a Mark must not be
// reachable after the matching Release — the memory is recycled and
// re-cleared by later Makes. Values that outlive the region (algorithm
// outputs) must be heap-allocated or cloned out before Release.
package arena

// Slab is a growable region allocator for values of type T. The zero
// value is ready to use.
type Slab[T any] struct {
	blocks   [][]T
	dirty    []int // per-block high-water mark of elements ever handed out
	block    int   // index of the block currently allocated from
	off      int   // used prefix of blocks[block]
	maxBlock int   // doubling cap in elements; 0 = unlimited
}

// minBlock is the element count of the first block (later blocks double).
const minBlock = 256

// SetMaxBlock caps the doubling growth of new blocks at n elements; a
// single Make/Copy larger than the cap still gets an exact-fit block.
// Zero (the default) doubles without bound. Write-once slabs of
// unpredictable final size want a cap: doubling overshoots the real
// footprint by up to 2×, and blocks past the runtime's 32 KiB
// small-object threshold are eagerly zeroed at allocation.
func (s *Slab[T]) SetMaxBlock(n int) { s.maxBlock = n }

// carve finds space for n values and returns the region without
// touching its contents. Memory above a block's dirty watermark is
// still zero from the block's make and is never re-cleared; Make clears
// only the recycled prefix below it.
func (s *Slab[T]) carve(n int) []T {
	if n < 0 {
		panic("arena: negative length")
	}
	for {
		if s.block < len(s.blocks) {
			b := s.blocks[s.block]
			if len(b)-s.off >= n {
				out := b[s.off : s.off+n : s.off+n]
				s.off += n
				return out
			}
			s.block++
			s.off = 0
			continue
		}
		size := minBlock
		if last := len(s.blocks); last > 0 {
			size = 2 * len(s.blocks[last-1])
		}
		if s.maxBlock > 0 && size > s.maxBlock {
			size = s.maxBlock
		}
		if size < n {
			size = n
		}
		s.blocks = append(s.blocks, make([]T, size))
		s.dirty = append(s.dirty, 0)
	}
}

// Make returns a zeroed slice of n values carved from the slab. The
// slice has capacity exactly n, so appends beyond it reallocate on the
// heap instead of silently overlapping later Makes.
func (s *Slab[T]) Make(n int) []T {
	out := s.carve(n)
	end := s.off
	if d := s.dirty[s.block]; d > end-n {
		// The region overlaps previously recycled memory; clear that
		// prefix. Anything past the watermark is pristine zero.
		used := d - (end - n)
		if used > n {
			used = n
		}
		clear(out[:used])
	}
	if end > s.dirty[s.block] {
		s.dirty[s.block] = end
	}
	return out
}

// Copy returns a slab-allocated copy of src. The region is fully
// overwritten by the copy, so it skips Make's clearing entirely.
func (s *Slab[T]) Copy(src []T) []T {
	out := s.Raw(len(src))
	copy(out, src)
	return out
}

// Raw returns an uninitialized slice of n values carved from the slab.
// Recycled regions hold arbitrary stale contents: Raw is only for
// callers that fully overwrite the slice before any read.
func (s *Slab[T]) Raw(n int) []T {
	out := s.carve(n)
	if end := s.off; end > s.dirty[s.block] {
		s.dirty[s.block] = end
	}
	return out
}

// Pos is a Slab position, taken with Mark and restored with Release.
type Pos struct{ block, off int }

// Mark records the slab's current position.
func (s *Slab[T]) Mark() Pos { return Pos{s.block, s.off} }

// Release rewinds the slab to a previously taken Mark, recycling every
// allocation made since. Marks must be released in LIFO order; slices
// allocated after the mark become invalid (their memory is cleared and
// reused by later Makes).
func (s *Slab[T]) Release(m Pos) { s.block, s.off = m.block, m.off }

// Reset rewinds the slab to empty, keeping its blocks for reuse.
func (s *Slab[T]) Reset() { s.block, s.off = 0, 0 }

// Arena bundles the scalar slabs the hot paths need, so one Mark
// covers scratch of every element type used inside a region.
type Arena struct {
	ints  Slab[int]
	words Slab[uint64]
	bools Slab[bool]
}

// Mark records the position of every slab.
type Mark struct{ ints, words, bools Pos }

// Mark records the arena's current position across all slabs.
func (a *Arena) Mark() Mark {
	return Mark{a.ints.Mark(), a.words.Mark(), a.bools.Mark()}
}

// Release rewinds all slabs to m (LIFO discipline, as with Slab).
func (a *Arena) Release(m Mark) {
	a.ints.Release(m.ints)
	a.words.Release(m.words)
	a.bools.Release(m.bools)
}

// Ints returns a zeroed []int of length n from the arena.
func (a *Arena) Ints(n int) []int { return a.ints.Make(n) }

// Words returns a zeroed []uint64 of length n from the arena.
func (a *Arena) Words(n int) []uint64 { return a.words.Make(n) }

// Bools returns a zeroed []bool of length n from the arena.
func (a *Arena) Bools(n int) []bool { return a.bools.Make(n) }

// CopyInts returns an arena-allocated copy of src.
func (a *Arena) CopyInts(src []int) []int { return a.ints.Copy(src) }
