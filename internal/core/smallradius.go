package core

import (
	"fmt"
	"math"
	"math/bits"

	"tellme/internal/bitvec"
)

// smallRadiusS computes the partition count s = ceil(PartC·D^{3/2}),
// clamped to [1, nObjs]. (Lemma 4.1 wants s ≥ 100·d^{3/2} for failure
// probability < 1/2 per iteration; the PartC knob trades constant factor
// for probe cost and is ablated in experiment E11.)
func smallRadiusS(cfg Config, d, nObjs int) int {
	s := int(math.Ceil(cfg.PartC * math.Pow(float64(d), 1.5)))
	if s < 1 {
		s = 1
	}
	if s > nObjs {
		s = nObjs
	}
	return s
}

// SmallRadiusPartitions reports the partition count SmallRadius will use
// for diameter d over nObjs objects under cfg (for reporting/ablation).
func SmallRadiusPartitions(cfg Config, d, nObjs int) int {
	return smallRadiusS(cfg, d, nObjs)
}

// SmallRadius implements Algorithm Small Radius (Fig. 4) for the given
// players over the object coordinate set objs, with frequency parameter
// alpha and distance parameter d. k is the confidence parameter K
// (k ≤ 0 uses the environment default of Θ(log n)).
//
// Returns out[p] = player p's output vector of length len(objs)
// (coordinate j is real object objs[j]); non-participants get the zero
// Vector. Theorem 4.4: if an (alpha,d)-typical subset of players exists,
// then w.h.p. every member's output is within 5d of its true vector on
// objs, at a cost of O(K·D^{3/2}·(D+log n)/α) probes per player.
func SmallRadius(env *Env, players []int, objs []int, alpha float64, d, k int) []bitvec.Vector {
	out := make([]bitvec.Vector, env.N)
	rows := smallRadiusPos(env, players, objs, alpha, d, k)
	if rows == nil { // empty players or objs: everyone keeps the zero Vector
		return out
	}
	for i, p := range players {
		out[p] = rows[i]
	}
	return out
}

// smallRadiusPos is SmallRadius with positional output: row i is the
// output of players[i], and nothing is sized by env.N. It is the
// one-job case of smallRadiusJobs.
func smallRadiusPos(env *Env, players []int, objs []int, alpha float64, d, k int) []bitvec.Vector {
	if len(players) == 0 || len(objs) == 0 {
		return nil
	}
	jobs := []srJob{{players: players, objs: objs}}
	smallRadiusJobs(env, jobs, alpha, d, k)
	return jobs[0].rows
}

// srJob is one SmallRadius instance of a fused call: nonempty players
// over the nonempty object coordinates objs. smallRadiusJobs leaves
// players[i]'s output vector (coordinate j is real object objs[j]) at
// rows[i]; the other fields are its working state.
type srJob struct {
	players, objs []int
	rows          []bitvec.Vector

	// parts holds every iteration's nonempty parts, in (iteration,
	// part) order; iterVecs[t][i] is u^t(players[i]), the stitched
	// vector of iteration t, and cands[i*k+t] its Step-2 candidate.
	parts    []srPart
	iterVecs [][]bitvec.Vector
	cands    []bitvec.Partial
}

// srPart is one part of an iteration's object partition.
type srPart struct {
	iter  int
	local []int            // the part's coordinates (indices into objs)
	space BinarySpace      // the real objects at those coordinates
	ui    []bitvec.Partial // U_i: the part's popular ZeroRadius outputs
}

// smallRadiusJobs runs independent SmallRadius instances that share
// alpha, d and k in lockstep: one fused ZeroRadius call for every
// job's k iterations × s parts, then one Step-1c phase and one Step-2
// phase over the union of the jobs' players, each player walking its
// jobs in job order and, within a job, the parts in (iteration, part)
// order. Nothing one job computes is read by another, and tags are
// minted in the order one-job calls would mint them, so noise-free
// outputs equal those of one call per job. Noisy ones do not: noise is
// drawn in each player's probe order, and here a player's probes for
// different parts interleave.
func smallRadiusJobs(env *Env, jobs []srJob, alpha float64, d, k int) {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: SmallRadius alpha %v out of (0,1]", alpha))
	}
	sc := &env.scratch
	defer sc.release(sc.mark())
	sets := make([]zrSet, len(jobs))
	if d == 0 {
		// Degenerate case: Zero Radius already solves it exactly.
		for j, jb := range jobs {
			sets[j] = zrSet{players: jb.players, jobs: []zrJob{{space: BinarySpace{Objs: jb.objs}, alpha: alpha}}}
			sets[j].jobs[0].plan(env, sc.iota(len(jb.players)))
		}
		zeroRadiusJobs(env, sets)
		for j := range jobs {
			jb, w, zr := &jobs[j], len(jobs[j].objs), sets[j].jobs[0].out
			jb.rows = make([]bitvec.Vector, len(jb.players))
			for i := range jb.rows {
				jb.rows[i] = valsToVector(zr[i*w : (i+1)*w])
			}
		}
		return
	}
	if k <= 0 {
		k = env.confidenceK()
	}
	lists := sc.lists.Make(len(jobs))
	for j := range jobs {
		lists[j] = jobs[j].players
	}
	fu := sc.fuse(env.N, lists...)
	defer env.span(spanSmallRadius, fu.players, len(jobs)).end()

	// Step 1a, per job and iteration: a random partition of the (local)
	// object coordinates, with a ZeroRadius job per nonempty part. A
	// job's sr tag is minted before its parts' zr tags, as a call per
	// job and per part would mint them.
	for j := range jobs {
		jb := &jobs[j]
		env.count(CountSmallRadius)
		coin := env.Public.Stream(env.freshTag("sr"), 0)
		s := smallRadiusS(env.Cfg, d, len(jb.objs))
		local := sc.iota(len(jb.objs)) // local coordinate ids 0..len-1
		pos := sc.iota(len(jb.players))
		wd := bitvec.WordsFor(len(jb.objs))
		zrs := make([]zrJob, 0, k*s)
		jb.parts = make([]srPart, 0, k*s)
		jb.iterVecs = make([][]bitvec.Vector, k)
		for t := range jb.iterVecs {
			uT := sc.vecs.Make(len(jb.players))
			backing := sc.a.Words(len(jb.players) * wd)
			for i := range uT {
				uT[i] = bitvec.Wrap(len(jb.objs), backing[i*wd:(i+1)*wd])
			}
			jb.iterVecs[t] = uT
			for _, partLocal := range assignPartsArena(sc, coin, local, s) {
				if len(partLocal) == 0 {
					continue
				}
				partObjs := sc.a.Ints(len(partLocal))
				for q, lc := range partLocal {
					partObjs[q] = jb.objs[lc]
				}
				jb.parts = append(jb.parts, srPart{iter: t, local: partLocal, space: BinarySpace{Objs: partObjs}})
				// jb.parts never grows past its capacity, so the job
				// can use the part's space in place.
				zrs = append(zrs, zrJob{space: &jb.parts[len(jb.parts)-1].space, alpha: alpha / 5})
				zrs[len(zrs)-1].plan(env, pos)
			}
		}
		sets[j] = zrSet{players: jb.players, jobs: zrs}
	}

	// Step 1b: Zero Radius on every part with parameter alpha/5, then
	// U_i, the part's vectors output by ≥ alpha·|players|/5 players.
	zeroRadiusJobs(env, sets)
	for j := range jobs {
		jb := &jobs[j]
		uThreshold := max(1, int(math.Ceil(alpha*float64(len(jb.players))/5)))
		for q := range jb.parts {
			pt := &jb.parts[q]
			zr := sets[j].jobs[q].out
			pt.ui = popularOutputs(sc, zr, len(jb.players), len(pt.local), uThreshold)
			if len(pt.ui) == 0 {
				// Premise failed: no vector is popular enough. Use every
				// distinct output so players can still stitch something.
				pt.ui = popularOutputs(sc, zr, len(jb.players), len(pt.local), 1)
			}
		}
	}

	// Step 1c: every player adopts each part's closest popular vector,
	// scattering its set bits into the stitched row word-by-word.
	env.phase(fu.players, func(p int) {
		pl := env.Engine.Player(p)
		js, is := fu.jobsOf(p)
		for m, j := range js {
			jb, i := &jobs[j], is[m]
			for q := range jb.parts {
				pt := &jb.parts[q]
				win := pt.ui[SelectPartial(pl, pt.space.Objs, pt.ui, d)]
				uw := jb.iterVecs[pt.iter][i].Words()
				wv, _ := win.Planes() // fully known: val bits are the vector
				for w, x := range wv {
					for ; x != 0; x &= x - 1 {
						lc := pt.local[w<<6|bits.TrailingZeros64(x)]
						uw[lc>>6] |= uint64(1) << (uint(lc) & 63)
					}
				}
			}
		}
	})

	// Step 2: each player selects among its k stitched vectors with
	// distance bound 5d. The candidates are zero-copy fully-known views
	// over the stitched rows (content-identical to PartialOf, so the
	// probe sequence is unchanged), built before the phase so its bodies
	// never touch the coordinator arena.
	for j := range jobs {
		jb := &jobs[j]
		knownAll := sc.a.Words(bitvec.WordsFor(len(jb.objs)))
		bitvec.FillOnes(len(jb.objs), knownAll)
		jb.cands = sc.partials.Make(len(jb.players) * k)
		for i := range jb.players {
			for t := 0; t < k; t++ {
				jb.cands[i*k+t] = bitvec.WrapPartial(len(jb.objs), jb.iterVecs[t][i].Words(), knownAll)
			}
		}
		jb.rows = make([]bitvec.Vector, len(jb.players))
	}
	env.phase(fu.players, func(p int) {
		pl := env.Engine.Player(p)
		js, is := fu.jobsOf(p)
		for m, j := range js {
			jb, i := &jobs[j], is[m]
			win := SelectPartial(pl, jb.objs, jb.cands[i*k:][:k], 5*d)
			jb.rows[i] = jb.iterVecs[win][i].Clone()
		}
	})
}

// popularOutputs tallies the n packed width-wide ZeroRadius output rows
// in zr (zeroRadiusFlat layout) and returns the distinct vectors with
// at least minVotes supporters as fully-known Partials, deterministically
// ordered (vote count desc, then lexicographic).
//
// Rows are compared in place, so only surviving vectors are
// materialized — and those live on the coordinator arena (one shared
// known-ones plane, one value plane per survivor), so the result must
// be consumed before the enclosing region is released. Callers treat
// them exactly like PartialOf-built candidates: the planes' contents,
// and hence every downstream probe decision, are identical.
func popularOutputs(sc *coScratch, zr []uint32, n, width, minVotes int) []bitvec.Partial {
	if n == 0 {
		return nil
	}
	// Rows are packed once into bit planes and everything below — the
	// uniform fast path, grouping, ordering, and the value planes of the
	// returned Partials themselves — works on the packed words. Packing normalizes values exactly like valsToVector
	// (nonzero → 1), so row equality and order match the old
	// per-element path bit for bit; but the compare and hash loops now
	// touch ⌈width/64⌉ words instead of width elements, and the FNV
	// multiply chain — one serially dependent multiply per *element*
	// before, the profile's hottest line here — runs once per word.
	wd := bitvec.WordsFor(width)
	if cap(sc.pack) < n*wd {
		sc.pack = make([]uint64, n*wd)
	}
	packed := sc.pack[:n*wd]
	clear(packed)
	for i := 0; i < n; i++ {
		row := zr[i*width : (i+1)*width]
		w := packed[i*wd : (i+1)*wd]
		for j, x := range row {
			if x != 0 {
				w[j>>6] |= uint64(1) << (uint(j) & 63)
			}
		}
	}

	// Fast path: every participant output the same vector — the dominant
	// case when the typicality premise holds. One scan, one group, no
	// map, no per-player keys.
	row0 := packed[0*wd : 1*wd : 1*wd]
	uniform := true
	for i := 1; i < n && uniform; i++ {
		ri := packed[i*wd : (i+1)*wd]
		for w := range row0 {
			if ri[w] != row0[w] {
				uniform = false
				break
			}
		}
	}
	if uniform {
		if n < minVotes {
			return nil
		}
		return survivors(sc, packed, width, []int{0})
	}

	// Groups carry only a representative row index until the very end:
	// most groups fall below minVotes, and materializing a Partial per
	// distinct vector (instead of per survivor) used to dominate this
	// function's allocations. Rows are grouped by an FNV-style hash of
	// their packed words — no keys, no map, no allocation — with a full
	// comparison only on hash match, so both the few-group and the
	// many-group (noisy) case stay cheap.
	type group struct {
		hash  uint64
		rep   int
		count int
	}
	groups := make([]group, 0, 8)
	for i := 0; i < n; i++ {
		ri := packed[i*wd : (i+1)*wd]
		h := uint64(14695981039346656037)
		for _, w := range ri {
			h = (h ^ w) * 1099511628211
		}
		found := false
		for g := range groups {
			if groups[g].hash == h && wordsEqual(ri, packed[groups[g].rep*wd:(groups[g].rep+1)*wd]) {
				groups[g].count++
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{hash: h, rep: i, count: 1})
		}
	}
	keep := groups[:0]
	for _, g := range groups {
		if g.count >= minVotes {
			keep = append(keep, g)
		}
	}
	// Deterministic order: count desc, then bit order — a strict total
	// order over distinct vectors, so neither grouping strategy nor map
	// iteration order can show through.
	for i := 1; i < len(keep); i++ {
		for j := i; j > 0; j-- {
			a, b := keep[j], keep[j-1]
			if a.count > b.count || (a.count == b.count && wordsLess(packed[a.rep*wd:(a.rep+1)*wd], packed[b.rep*wd:(b.rep+1)*wd])) {
				keep[j], keep[j-1] = keep[j-1], keep[j]
			} else {
				break
			}
		}
	}
	reps := make([]int, len(keep))
	for i, g := range keep {
		reps[i] = g.rep
	}
	return survivors(sc, packed, width, reps)
}

// survivors copies the packed rows reps to the arena as fully-known
// Partials, in order.
func survivors(sc *coScratch, packed []uint64, width int, reps []int) []bitvec.Partial {
	wd := bitvec.WordsFor(width)
	out := sc.partials.Make(len(reps))
	known := sc.a.Words(wd)
	bitvec.FillOnes(width, known)
	vals := sc.a.Words(len(reps) * wd)
	for i, rep := range reps {
		v := vals[i*wd : (i+1)*wd : (i+1)*wd]
		copy(v, packed[rep*wd:(rep+1)*wd])
		out[i] = bitvec.WrapPartial(width, v, known)
	}
	return out
}

// wordsEqual reports whether two packed rows are identical.
func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wordsLess orders packed rows by their first differing bit (0 before
// 1) — exactly bitvec.Partial.Less over the fully-known Partials
// valsToVector would build from the rows they were packed from.
func wordsLess(a, b []uint64) bool {
	for i := range a {
		if d := a[i] ^ b[i]; d != 0 {
			return b[i]&(d&-d) != 0
		}
	}
	return false
}

// valsToVector converts a 0/1 value vector to a packed Vector.
func valsToVector(vals []uint32) bitvec.Vector {
	v := bitvec.New(len(vals))
	for i, x := range vals {
		if x != 0 {
			v.Set(i, 1)
		}
	}
	return v
}
