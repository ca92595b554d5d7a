package core

import (
	"math"

	"tellme/internal/bitvec"
	"tellme/internal/ints"
)

// Regime identifies which sub-algorithm the main dispatcher used.
type Regime int

// Dispatch regimes, in increasing diameter order (Fig. 1).
const (
	RegimeZero Regime = iota
	RegimeSmall
	RegimeLarge
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeZero:
		return "ZeroRadius"
	case RegimeSmall:
		return "SmallRadius"
	case RegimeLarge:
		return "LargeRadius"
	default:
		return "unknown"
	}
}

// smallRadiusCutoff is the D below which SmallRadius is used: the
// paper's "D = O(log n)" branch.
func smallRadiusCutoff(n int) int {
	return int(math.Ceil(math.Log(float64(n) + 1)))
}

// DispatchRegime returns the branch of Fig. 1 taken for diameter d.
func DispatchRegime(n, d int) Regime {
	switch {
	case d == 0:
		return RegimeZero
	case d <= smallRadiusCutoff(n):
		return RegimeSmall
	default:
		return RegimeLarge
	}
}

// Main implements the main algorithm for known α and D (Fig. 1): it
// dispatches on D to Zero, Small, or Large Radius and returns every
// player's output vector over all m objects.
//
// out[p] is nil only for n == 0 inputs; outputs may contain '?' entries
// in the Large Radius regime.
func Main(env *Env, alpha float64, d int) []bitvec.Partial {
	return MainFor(env, alpha, d, allPlayers(env.N), allObjects(env.M))
}

// MainFor is Main restricted to a player subset over an object subset —
// the epoch re-entry form the serving daemon uses when only the
// currently-admitted slots participate. alpha is interpreted relative
// to len(players), matching the sub-algorithms' conventions. The
// returned slice is indexed by player id (length env.N); entries for
// players outside the subset are zero-valued. Pass objs covering all of
// [0, m) for full-length output vectors (the Zero/Small regimes return
// vectors positional in objs).
func MainFor(env *Env, alpha float64, d int, players, objs []int) []bitvec.Partial {
	env.checkAborted()
	out := make([]bitvec.Partial, env.N)
	if len(players) == 0 || len(objs) == 0 {
		return out
	}
	switch DispatchRegime(env.N, d) {
	case RegimeZero:
		zr := zeroRadiusFlat(env, players, BinarySpace{Objs: objs}, alpha)
		for i, p := range players {
			out[p] = bitvec.PartialOf(valsToVector(zr[i*len(objs) : (i+1)*len(objs)]))
		}
	case RegimeSmall:
		sr := smallRadiusPos(env, players, objs, alpha, d, 0)
		for i, p := range players {
			out[p] = bitvec.PartialOf(sr[i])
		}
	default:
		lr := LargeRadius(env, players, objs, alpha, d)
		for _, p := range players {
			out[p] = lr[p]
		}
	}
	return out
}

// allObjects returns [0, m).
func allObjects(m int) []int {
	return ints.Iota(m)
}
