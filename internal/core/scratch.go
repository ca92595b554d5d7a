package core

import (
	"tellme/internal/arena"
	"tellme/internal/bitvec"
	"tellme/internal/rng"
)

// coScratch is the coordinator's region allocator: per-call working
// memory of the algorithm bodies (recursion-tree nodes, partition
// lists, stitched-vector backings) that the next call reuses instead of
// reallocating. It lives on the Env and is owned by the coordinator
// goroutine — algorithms allocate from it only between phases; phase
// bodies at most write into rows handed out before the phase started
// (the barrier publishes those writes), never allocate.
//
// Discipline (DESIGN.md §11): every algorithm takes a mark on entry and
// releases it on exit via defer, so nested calls (LargeRadius →
// SmallRadius → ZeroRadius) unwind LIFO even when an Abort panic cuts
// through the recursion. Values that outlive the call — every returned
// output — must be heap-allocated or cloned out, never arena-backed.
type coScratch struct {
	a        arena.Arena
	nodes    arena.Slab[zrNode]
	nodePtrs arena.Slab[*zrNode]
	lists    arena.Slab[[]int]
	vecs     arena.Slab[bitvec.Vector]
	partials arena.Slab[bitvec.Partial]
	names    arena.Slab[string]

	// pack is popularOutputs' packing buffer, reused from call to call,
	// so the arena holds only the few rows that survive the vote.
	pack []uint64
}

// coMark is a position across all of coScratch's slabs.
type coMark struct {
	a        arena.Mark
	nodes    arena.Pos
	nodePtrs arena.Pos
	lists    arena.Pos
	vecs     arena.Pos
	partials arena.Pos
	names    arena.Pos
}

func (s *coScratch) mark() coMark {
	return coMark{
		a:        s.a.Mark(),
		nodes:    s.nodes.Mark(),
		nodePtrs: s.nodePtrs.Mark(),
		lists:    s.lists.Mark(),
		vecs:     s.vecs.Mark(),
		partials: s.partials.Mark(),
		names:    s.names.Mark(),
	}
}

func (s *coScratch) release(m coMark) {
	s.a.Release(m.a)
	s.nodes.Release(m.nodes)
	s.nodePtrs.Release(m.nodePtrs)
	s.lists.Release(m.lists)
	s.vecs.Release(m.vecs)
	s.partials.Release(m.partials)
	s.names.Release(m.names)
}

// fusedSet indexes the players of a fused call: several independent
// jobs (sub-algorithm instances over their own player lists) whose
// phases run together, one phase per step for all of them. players
// lists every player of some job once, in first-appearance order. The
// player players[u] belongs to the jobs job[off[u]:off[u+1]], in job
// order, at the positions pos[off[u]:off[u+1]] of those jobs' player
// lists.
type fusedSet struct {
	players       []int
	at            []int // at[p] is u+1 for p = players[u], 0 for players in no job
	off, job, pos []int
}

// index returns u with players[u] = p.
func (f *fusedSet) index(p int) int { return f.at[p] - 1 }

// jobsOf returns the jobs of player p, in job order, and p's position
// in each.
func (f *fusedSet) jobsOf(p int) (job, pos []int) {
	u := f.index(p)
	return f.job[f.off[u]:f.off[u+1]], f.pos[f.off[u]:f.off[u+1]]
}

// fuse builds the fusedSet of the given jobs' player lists, whose ids
// are < n, on the arena.
func (s *coScratch) fuse(n int, lists ...[]int) fusedSet {
	total := 0
	for _, ps := range lists {
		total += len(ps)
	}
	f := fusedSet{players: s.a.Ints(total)[:0], at: s.a.Ints(n)}
	for _, ps := range lists {
		for _, p := range ps {
			if f.at[p] == 0 {
				f.players = append(f.players, p)
				f.at[p] = len(f.players)
			}
		}
	}
	f.off = s.a.Ints(len(f.players) + 1)
	for _, ps := range lists {
		for _, p := range ps {
			f.off[f.at[p]]++
		}
	}
	for u := 1; u < len(f.off); u++ {
		f.off[u] += f.off[u-1]
	}
	next := s.a.CopyInts(f.off[:len(f.players)])
	f.job, f.pos = s.a.Ints(total), s.a.Ints(total)
	for j, ps := range lists {
		for i, p := range ps {
			u := f.index(p)
			f.job[next[u]], f.pos[next[u]] = j, i
			next[u]++
		}
	}
	return f
}

// iota fills an arena-backed slice with [0, n).
func (s *coScratch) iota(n int) []int {
	out := s.a.Ints(n)
	for i := range out {
		out[i] = i
	}
	return out
}

// splitHalfArena is splitHalf with the shuffled copy taken from the
// scratch arena — same coin consumption, same halves.
func splitHalfArena(s *coScratch, r *rng.Rand, ids []int) (a, b []int) {
	shuffled := s.a.CopyInts(ids)
	r.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	half := (len(shuffled) + 1) / 2
	return shuffled[:half:half], shuffled[half:]
}

// assignPartsArena is assignParts with every slice — the part headers
// and the shared backing — taken from the scratch arena. Identical coin
// consumption and part contents.
func assignPartsArena(s *coScratch, r *rng.Rand, ids []int, parts int) [][]int {
	assign := s.a.Ints(len(ids))
	counts := s.a.Ints(parts)
	for i := range ids {
		a := r.Intn(parts)
		assign[i] = a
		counts[a]++
	}
	backing := s.a.Ints(len(ids))
	out := s.lists.Make(parts)
	off := 0
	for a, c := range counts {
		out[a] = backing[off : off : off+c]
		off += c
	}
	for i, id := range ids {
		a := assign[i]
		out[a] = append(out[a], id)
	}
	return out
}
