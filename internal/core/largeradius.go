package core

import (
	"fmt"
	"math"

	"tellme/internal/bitvec"
	"tellme/internal/probe"
)

// VirtualSpace is the ObjectSpace of Large Radius, Step 4: abstract
// object ℓ is a whole object group; its "value" is the index of a
// Coalesce candidate; probing it runs Select over the group's
// candidates.
type VirtualSpace struct {
	// GroupObjs[ℓ] lists the real object ids of group ℓ.
	GroupObjs [][]int
	// Cands[ℓ] is the candidate set B_ℓ (vectors over GroupObjs[ℓ]).
	Cands [][]bitvec.Partial
	// Bound is the Select distance bound for every group.
	Bound int
}

// Len implements ObjectSpace.
func (s *VirtualSpace) Len() int { return len(s.GroupObjs) }

// Probe implements ObjectSpace: one "logical probe" = one Select run.
func (s *VirtualSpace) Probe(pl *probe.Player, j int) uint32 {
	return uint32(SelectPartial(pl, s.GroupObjs[j], s.Cands[j], s.Bound))
}

// LargeRadius implements Algorithm Large Radius (Fig. 5) for the given
// players over the object coordinate set objs, with known alpha and
// distance bound d (intended for d = Ω(log n); the main dispatcher sends
// smaller d to SmallRadius).
//
// Returns out[p] as a Partial of length len(objs) (coordinate j is real
// object objs[j]); outputs may contain up to O(d/α) '?' entries, as the
// paper allows. Theorem 5.4: w.h.p. every (alpha,d)-typical player's
// output is within O(d/α) of its true vector, at polylog probing cost
// per player.
func LargeRadius(env *Env, players []int, objs []int, alpha float64, d int) []bitvec.Partial {
	out := make([]bitvec.Partial, env.N)
	if len(players) == 0 || len(objs) == 0 {
		return out
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("core: LargeRadius alpha %v out of (0,1]", alpha))
	}
	env.count(CountLargeRadius)
	defer env.span(spanLargeRadius, players, 1).end()
	tag := env.freshTag("lr")
	coin := env.Public.Stream(tag, 0)
	n := len(players)
	logn := math.Log(float64(env.N) + 1)

	// Step 1: partition objects into L ≈ GroupC·d/log n groups and assign
	// each player to k ≈ ⌈d/(αn)⌉ groups.
	groupCount := int(math.Ceil(env.Cfg.GroupC * float64(d) / logn))
	if groupCount < 1 {
		groupCount = 1
	}
	if groupCount > len(objs) {
		groupCount = len(objs)
	}
	sc := &env.scratch
	defer sc.release(sc.mark())
	local := sc.iota(len(objs))
	groupLocal := assignPartsArena(sc, coin, local, groupCount)
	groupObjs := sc.lists.Make(groupCount)
	for g, lcs := range groupLocal {
		groupObjs[g] = sc.a.Ints(len(lcs))
		for j, lc := range lcs {
			groupObjs[g][j] = objs[lc]
		}
	}

	memberships := int(math.Ceil(float64(d) / (alpha * float64(n))))
	if memberships < 1 {
		memberships = 1
	}
	if memberships > groupCount {
		memberships = groupCount
	}
	groupPlayers := make([][]int, groupCount)
	for _, p := range players {
		perm := coin.Perm(groupCount)
		for _, g := range perm[:memberships] {
			groupPlayers[g] = append(groupPlayers[g], p)
		}
	}

	// λ: the per-group distance bound. Typical players' distance on a
	// group concentrates around d/L ≈ log n/GroupC (Lemma 5.5).
	lambda := int(math.Ceil(env.Cfg.LambdaC*float64(d)/float64(groupCount))) + 4
	if lambda > d {
		lambda = d
	}
	// Coalesce distance: must stay well below the group size, or every
	// posted vector lands in one ball and clustering degenerates to
	// "lexicographically-first poster wins".
	coalD := int(env.Cfg.CoalDC * float64(lambda))
	if cap := len(objs) / (3 * groupCount); coalD > cap && cap >= 1 {
		coalD = cap
	}

	// Abort-path cleanup (see dropQuietly): Step 2 posts to per-group
	// topics that are dropped after Step 3. Re-drops of already-dropped
	// topics are no-ops.
	topics := make([]string, groupCount)
	for g := range topics {
		topics[g] = fmt.Sprintf("%s/g%d", tag, g)
	}
	defer func() {
		if rec := recover(); rec != nil {
			env.dropQuietly(topics...)
			panic(rec)
		}
	}()

	// Step 2: Small Radius per group, with frequency parameter α/2 and
	// confidence parameter K = Θ(log n), every group in one fused call;
	// players post their outputs.
	srs := make([]srJob, 0, groupCount)
	srGroup := make([]int, 0, groupCount)
	for g := 0; g < groupCount; g++ {
		if len(groupPlayers[g]) > 0 && len(groupObjs[g]) > 0 {
			srs = append(srs, srJob{players: groupPlayers[g], objs: groupObjs[g]})
			srGroup = append(srGroup, g)
		}
	}
	smallRadiusJobs(env, srs, alpha/2, lambda, env.confidenceK())
	for j, g := range srGroup {
		for i, p := range groupPlayers[g] {
			env.Board.Post(topics[g], p, bitvec.PartialOf(srs[j].rows[i]))
		}
	}

	// Step 3: Coalesce each group's posted vectors into at most O(1/α)
	// candidates (worst-case pairwise spread of typical outputs is
	// 11λ = 5λ + λ + 5λ; coalD above uses the realized ≈2λ scale).
	cands := make([][]bitvec.Partial, groupCount)
	for g, topic := range topics {
		env.checkAborted()
		postings := env.Board.Postings(topic)
		vecs := make([]bitvec.Partial, len(postings))
		for i, po := range postings {
			vecs[i] = po.Vec
		}
		env.count(CountCoalesce)
		b := Coalesce(vecs, coalD, alpha/2)
		if len(b) == 0 && len(vecs) > 0 {
			// Premise failed for this group; keep the most popular raw
			// vectors (capped) so Step 4 still has candidates.
			b = env.Board.PopularVectors(topic, 1)
			if cap := int(math.Ceil(2/alpha)) + 1; len(b) > cap {
				b = b[:cap]
			}
		}
		if len(b) == 0 {
			// Nobody posted (empty group): a single all-? candidate keeps
			// those coordinates undetermined.
			b = []bitvec.Partial{bitvec.NewPartial(len(groupObjs[g]))}
		}
		cands[g] = b
	}
	// The group topics hold vector postings, which outlive a drop, so
	// they are dropped after the loop: a deferred board sends the drops
	// with Step 4's first barrier, not one by one with the loop's reads.
	for _, topic := range topics {
		env.Board.DropTopic(topic)
	}

	// Step 4: Zero Radius over the virtual objects. The Select bound per
	// logical probe covers d~(v*, v(p)) ≤ 2·coalD + 5λ; the default knob
	// trims it to 5λ in practice — Select degrades gracefully if the
	// bound is exceeded (it falls back to nearest-on-probed-set).
	selBound := coalD + lambda
	space := &VirtualSpace{GroupObjs: groupObjs, Cands: cands, Bound: selBound}
	choice := zeroRadiusFlat(env, players, space, alpha)

	// Stitch each player's chosen candidates into a full output vector.
	// The outputs escape to the caller, so their planes are
	// heap-allocated — but as two backing arrays for all players rather
	// than two per player.
	fu := sc.fuse(env.N, players)
	wd := bitvec.WordsFor(len(objs))
	valB := make([]uint64, len(players)*wd)
	knownB := make([]uint64, len(players)*wd)
	env.phase(players, func(p int) {
		i := fu.index(p)
		row := choice[i*groupCount : (i+1)*groupCount]
		w := bitvec.WrapPartial(len(objs), valB[i*wd:(i+1)*wd:(i+1)*wd], knownB[i*wd:(i+1)*wd:(i+1)*wd])
		for g := 0; g < groupCount; g++ {
			ci := int(row[g])
			if ci >= len(cands[g]) {
				ci = 0
			}
			bg := cands[g][ci]
			for j, lc := range groupLocal[g] {
				if v := bg.Get(j); v != bitvec.Unknown {
					w.SetBit(lc, v)
				}
			}
		}
		out[p] = w
	})
	return out
}
