package core

import (
	"sort"
	"strconv"

	"tellme/internal/bitvec"
	"tellme/internal/rng"
)

// Refresh is the incremental-repair extension motivated by the paper's
// dynamic-environment scenario (quantified in experiments E17/E20):
// after communities have agreed on outputs and the world drifts in a
// bounded number of coordinates, a full re-run costs a fresh
// polylog(n)/α budget; Refresh instead repairs the stale outputs at
// ~redundancy·m/(αn) + drift probes per player.
//
// The paper's problem statement makes every output vector public ("w(p)
// is accessible to all players"), which Refresh exploits:
//
//  1. Players post their stale outputs; every vector held by at least
//     alpha·|players| posters identifies a consensus group (one per
//     community that previously converged).
//  2. Within each group, a public-coin assignment spreads the group's
//     coordinates over its holders with the given redundancy; each
//     holder re-probes its share and posts a patch where the world
//     disagrees with the group consensus. Holders' stale outputs equal
//     the consensus, so patches are exactly the drifted coordinates —
//     players outside the group never post into it, and coverage is
//     exact rather than probabilistic.
//  3. Every group member verifies each posted patch coordinate with one
//     probe of its own (ground truth for that player) and rewrites it.
//
// Players not in any consensus group keep their stale output unchanged
// (they went it alone before; they can re-probe alone too).
//
// Epoch re-entry (the serving daemon's churn path): a player whose
// stale entry is the zero-value Partial (Len() == 0 — distinct from
// NewPartial(m), the all-'?' vector of full length) is a *joiner*: it
// has no previous output to post, is excluded from the consensus
// threshold, and after the groups repair it adopts the repaired
// consensus vector that looks closest to its own taste via RSelect —
// the same Choose-Closest guarantee every returning member relies on.
// A joiner facing no consensus group keeps the zero-value output; the
// caller is expected to fall back to a full run for that epoch.
//
// maxPatches caps per-player verification in case the world drifted
// beyond expectation; patches past the cap (most-voted first) are
// dropped, leaving at most that many stale coordinates.
func Refresh(env *Env, players []int, objs []int, stale []bitvec.Partial, alpha float64, redundancy, maxPatches int) []bitvec.Partial {
	out := make([]bitvec.Partial, env.N)
	if len(players) == 0 || len(objs) == 0 {
		return out
	}
	if redundancy < 1 {
		redundancy = 1
	}
	if maxPatches < 1 {
		maxPatches = len(objs)
	}
	tag := env.freshTag("rf")
	coin := env.Public.Stream(tag, 0)

	// The stale inputs are the last completed epoch: checkpoint them so
	// an abort mid-repair reports them instead of a half-patched mix.
	env.saveCheckpoint(stale, 0)

	defer env.span(spanRefresh, players, 1).end()

	// Abort-path cleanup (see dropQuietly): the stale topic and the
	// patch topics up to the running group's. A failure of the span
	// end's flush, which may hold the stale topic's drop, is the span
	// end's own to clean up.
	staleTopic := tag + "/stale"
	groupID := 0
	defer func() {
		if rec := recover(); rec != nil {
			names := []string{staleTopic}
			for g := 0; g <= groupID; g++ {
				names = append(names, tag+"/patches/"+strconv.Itoa(g))
			}
			env.dropQuietly(names...)
			panic(rec)
		}
	}()

	// Step 1: identify consensus groups from the (public) stale outputs.
	// Joiners have nothing to post and do not dilute the threshold.
	posters := 0
	for _, p := range players {
		out[p] = stale[p].Clone() // default: keep stale
		if stale[p].Len() == 0 {
			continue // joiner
		}
		posters++
		env.Board.Post(staleTopic, p, stale[p])
	}
	need := int(alpha * float64(posters))
	if need < 2 {
		need = 2
	}
	votes := env.Board.Votes(staleTopic)
	env.Board.DropTopic(staleTopic)

	var repaired []bitvec.Partial
	for _, v := range votes {
		if v.Count < need {
			continue
		}
		env.checkAborted()
		repaired = append(repaired, refreshGroup(env, coin, objs, v.Voters, v.Vec, out,
			redundancy, maxPatches, tag, groupID))
		groupID++
	}
	adoptJoiners(env, players, objs, stale, repaired, out, tag)
	return out
}

// adoptJoiners has every joiner (zero-length stale entry) RSelect among
// the repaired consensus vectors and adopt the closest-looking one,
// Fill(0)-normalized like every cross-candidate comparison (see
// pickBest). Joiners probe only here: len(repaired)·RSelC·log n probes
// each, the same budget a returning member spends picking between two
// anytime phases. With no repaired groups the joiners keep their
// zero-value outputs and the caller decides whether to run fully.
func adoptJoiners(env *Env, players, objs []int, stale, repaired, out []bitvec.Partial, tag string) {
	var joiners []int
	for _, p := range players {
		if stale[p].Len() == 0 {
			joiners = append(joiners, p)
		}
	}
	if len(joiners) == 0 || len(repaired) == 0 {
		return
	}
	cands := make([]bitvec.Partial, len(repaired))
	for i, r := range repaired {
		cands[i] = bitvec.PartialOf(r.Fill(0))
	}
	cLogN := RSelSamples(env.Cfg, env.N)
	env.phase(joiners, func(p int) {
		pl := env.Engine.Player(p)
		r := env.Public.Stream(tag+"/adopt", p)
		out[p] = cands[RSelect(pl, r, objs, cands, cLogN)]
	})
}

// refreshGroup repairs one consensus group's shared output and returns
// the repaired consensus vector: the old consensus with each selected
// patch coordinate rewritten to its majority-voted value. Individual
// members self-verify every patch with their own probes; the returned
// vector is the group-level view joiners adopt from.
func refreshGroup(env *Env, coin *rng.Rand, objs []int, holders []int,
	consensus bitvec.Partial, out []bitvec.Partial,
	redundancy, maxPatches int, tag string, groupID int) bitvec.Partial {

	topic := tag + "/patches/" + strconv.Itoa(groupID)

	// Public-coin assignment: each coordinate to `redundancy` holders.
	assigned := make(map[int][]int, len(holders)) // player -> local coords
	order := coin.Perm(len(objs))
	for rep := 0; rep < redundancy; rep++ {
		offset := coin.Intn(len(holders))
		for i, lc := range order {
			p := holders[(i+offset)%len(holders)]
			assigned[p] = append(assigned[p], lc)
		}
	}

	// Phase 1: holders re-probe their share against the group consensus.
	env.phase(holders, func(p int) {
		pl := env.Engine.Player(p)
		for _, lc := range assigned[p] {
			v := pl.Probe(objs[lc])
			if consensus.Get(lc) != v {
				env.Board.PostValues(topic, p, []uint32{uint32(lc), uint32(v)})
			}
		}
	})

	// Collect patch coordinates, most-voted first, capped. Votes are
	// tallied per (coordinate, value) so the repaired consensus can take
	// the majority value at each patched coordinate.
	byCoord := map[int][2]int{}
	for _, v := range env.Board.ValueVotes(topic) {
		if len(v.Vals) == 2 && v.Vals[1] <= 1 {
			t := byCoord[int(v.Vals[0])]
			t[v.Vals[1]] += v.Count
			byCoord[int(v.Vals[0])] = t
		}
	}
	type patch struct{ lc, count int }
	patches := make([]patch, 0, len(byCoord))
	for lc, t := range byCoord {
		patches = append(patches, patch{lc, t[0] + t[1]})
	}
	sort.Slice(patches, func(i, j int) bool {
		if patches[i].count != patches[j].count {
			return patches[i].count > patches[j].count
		}
		return patches[i].lc < patches[j].lc
	})
	if len(patches) > maxPatches {
		patches = patches[:maxPatches]
	}

	// Phase 2: every holder self-verifies each patch coordinate. Nothing
	// reads the patches topic any more, so it is dropped after the phase.
	env.phase(holders, func(p int) {
		pl := env.Engine.Player(p)
		for _, pa := range patches {
			out[p].SetBit(pa.lc, pl.Probe(objs[pa.lc]))
		}
	})
	env.Board.DropTopic(topic)

	repaired := consensus.Clone()
	for _, pa := range patches {
		t := byCoord[pa.lc]
		var v byte
		if t[1] >= t[0] {
			v = 1
		}
		repaired.SetBit(pa.lc, v)
	}
	return repaired
}

// RefreshBudget returns the default re-verification redundancy and
// patch cap: redundancy 2 and a patch budget of 4·expected-drift
// (minimum 8).
func RefreshBudget(expectedDrift int) (redundancy, maxPatches int) {
	redundancy = 2
	maxPatches = 4 * expectedDrift
	if maxPatches < 8 {
		maxPatches = 8
	}
	return redundancy, maxPatches
}
