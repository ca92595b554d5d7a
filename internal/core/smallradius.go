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
// output of players[i], and nothing is sized by env.N. LargeRadius runs
// one SmallRadius per object group over that group's (usually small)
// player set, so the env.N-wide wrapper arrays would dominate its
// allocations.
func smallRadiusPos(env *Env, players []int, objs []int, alpha float64, d, k int) []bitvec.Vector {
	if len(players) == 0 || len(objs) == 0 {
		return nil
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: SmallRadius alpha %v out of (0,1]", alpha))
	}
	if d == 0 {
		// Degenerate case: Zero Radius already solves it exactly.
		zr := zeroRadiusBitsFlat(env, players, objs, alpha)
		rows := make([]bitvec.Vector, len(players))
		for i := range rows {
			rows[i] = valsToVector(zr[i*len(objs) : (i+1)*len(objs)])
		}
		return rows
	}
	env.count(CountSmallRadius)
	defer env.span(spanSmallRadius, players)()
	if k <= 0 {
		k = env.confidenceK()
	}
	tag := env.freshTag("sr")
	coin := env.Public.Stream(tag, 0)
	s := smallRadiusS(env.Cfg, d, len(objs))
	// Threshold for U_i: vectors output by ≥ alpha·|players|/5 players.
	uThreshold := int(math.Ceil(alpha * float64(len(players)) / 5))
	if uThreshold < 1 {
		uThreshold = 1
	}

	sc := &env.scratch
	defer sc.release(sc.mark())
	posOf := sc.fillPos(env.N, players)
	local := sc.iota(len(objs)) // local coordinate ids 0..len-1

	// iterVecs[t][i] is u^t(players[i]), the stitched vector of
	// iteration t. All k iterations' rows are arena-allocated up front
	// so the per-iteration partition scratch below can be released LIFO
	// at the end of each iteration without tearing down vectors Step 2
	// still reads.
	wdO := bitvec.WordsFor(len(objs))
	iterVecs := make([][]bitvec.Vector, k)
	for t := range iterVecs {
		uT := sc.vecs.Make(len(players))
		backing := sc.a.Words(len(players) * wdO)
		for i := range players {
			uT[i] = bitvec.Wrap(len(objs), backing[i*wdO:(i+1)*wdO])
		}
		iterVecs[t] = uT
	}

	for t := 0; t < k; t++ {
		env.checkAborted()
		mt := sc.mark()
		// Step 1a: random partition of the (local) object coordinates.
		parts := assignPartsArena(sc, coin, local, s)
		uT := iterVecs[t]

		for _, partLocal := range parts {
			if len(partLocal) == 0 {
				continue
			}

			// Step 1b: Zero Radius on this part with parameter alpha/5.
			partObjs := sc.a.Ints(len(partLocal))
			for j, lc := range partLocal {
				partObjs[j] = objs[lc]
			}
			zr := zeroRadiusBitsFlat(env, players, partObjs, alpha/5)
			ui := popularOutputs(sc, zr, len(players), len(partObjs), uThreshold)
			if len(ui) == 0 {
				// Premise failed: no vector is popular enough. Use every
				// distinct output so players can still stitch something.
				ui = popularOutputs(sc, zr, len(players), len(partObjs), 1)
			}

			// Step 1c: every player adopts the closest popular vector,
			// scattering its set bits into the stitched row word-by-word.
			env.phase(players, func(p int) {
				pl := env.Engine.Player(p)
				win := ui[SelectPartial(pl, partObjs, ui, d)]
				uw := uT[posOf[p]].Words()
				wv, _ := win.Planes() // fully known: val bits are the vector
				for w, x := range wv {
					for ; x != 0; x &= x - 1 {
						lc := partLocal[w<<6|bits.TrailingZeros64(x)]
						uw[lc>>6] |= uint64(1) << (uint(lc) & 63)
					}
				}
			})
		}
		sc.release(mt)
	}

	// Step 2: each player selects among its k stitched vectors with
	// distance bound 5d. The candidates are zero-copy fully-known views
	// over the stitched rows (content-identical to PartialOf, so the
	// probe sequence is unchanged), built before the phase so its bodies
	// never touch the coordinator arena.
	knownAll := sc.a.Words(wdO)
	bitvec.FillOnes(len(objs), knownAll)
	candsAll := sc.partials.Make(len(players) * k)
	for i := range players {
		for t := 0; t < k; t++ {
			candsAll[i*k+t] = bitvec.WrapPartial(len(objs), iterVecs[t][i].Words(), knownAll)
		}
	}
	rows := make([]bitvec.Vector, len(players))
	env.phase(players, func(p int) {
		i := posOf[p]
		pl := env.Engine.Player(p)
		cands := candsAll[i*k:][:k]
		win := SelectPartial(pl, objs, cands, 5*d)
		rows[i] = iterVecs[win][i].Clone()
	})
	return rows
}

// popularOutputs tallies the n packed width-wide ZeroRadius output rows
// in zr (zeroRadiusFlat layout) and returns the distinct vectors with
// at least minVotes supporters as fully-known Partials, deterministically
// ordered (vote count desc, then lexicographic).
//
// Rows are compared in place, so only distinct vectors are
// materialized — and those live on the coordinator arena (one shared
// known-ones plane, one value plane per survivor), so the result must
// be consumed before the enclosing region is released. Callers treat
// them exactly like PartialOf-built candidates: the planes' contents,
// and hence every downstream probe decision, are identical.
func popularOutputs(sc *coScratch, zr []uint32, n, width, minVotes int) []bitvec.Partial {
	if n == 0 {
		return nil
	}
	// Rows are packed once into arena-backed bit planes and everything
	// below — the uniform fast path, grouping, ordering, and the value
	// planes of the returned Partials themselves — works on the packed
	// words. Packing normalizes values exactly like valsToVector
	// (nonzero → 1), so row equality and order match the old
	// per-element path bit for bit; but the compare and hash loops now
	// touch ⌈width/64⌉ words instead of width elements, and the FNV
	// multiply chain — one serially dependent multiply per *element*
	// before, the profile's hottest line here — runs once per word.
	wd := bitvec.WordsFor(width)
	packed := sc.a.Words(n * wd) // zeroed by Make
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
		out := sc.partials.Make(1)
		known := sc.a.Words(wd)
		bitvec.FillOnes(width, known)
		out[0] = bitvec.WrapPartial(width, row0, known)
		return out
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
	out := sc.partials.Make(len(keep))
	known := sc.a.Words(wd)
	bitvec.FillOnes(width, known)
	for i, g := range keep {
		out[i] = bitvec.WrapPartial(width, packed[g.rep*wd:(g.rep+1)*wd:(g.rep+1)*wd], known)
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
