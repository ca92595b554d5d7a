package core

import (
	"math"

	"tellme/internal/bitvec"
)

// CandidateDs returns the diameter guesses the unknown-D wrapper tries:
// 0 and the powers of two up to m (Section 6).
func CandidateDs(m int) []int {
	ds := []int{0}
	for d := 1; d < m; d *= 2 {
		ds = append(ds, d)
	}
	if len(ds) == 0 || ds[len(ds)-1] < m {
		ds = append(ds, m)
	}
	return ds
}

// UnknownD implements Section 6's wrapper for known α but unknown D: it
// runs the main algorithm once per candidate D ∈ {0, 1, 2, 4, ..., m}
// and every player picks the output that appears closest to its own
// vector using RSelect (no distance bound available).
//
// Cost is a log(m) factor over the known-D algorithm; quality is a
// constant factor worse (Theorem 1.1's statement absorbs both).
func UnknownD(env *Env, alpha float64) []bitvec.Partial {
	return UnknownDFor(env, alpha, allPlayers(env.N), allObjects(env.M))
}

// UnknownDFor is UnknownD restricted to a player subset over an object
// subset — the epoch re-entry form the serving daemon runs over the
// currently-admitted slots. The returned slice is indexed by player id
// (length env.N); entries outside the subset are zero-valued.
func UnknownDFor(env *Env, alpha float64, players, objs []int) []bitvec.Partial {
	defer env.span(spanUnknownD, players)()
	ds := CandidateDs(len(objs))
	perD := make([][]bitvec.Partial, len(ds))
	for i, d := range ds {
		env.checkAborted()
		perD[i] = MainFor(env, alpha, d, players, objs)
	}
	return pickBest(env, perD, players, objs)
}

// pickBest has every player in the subset RSelect among the per-run
// output vectors assigned to it.
//
// Candidates are compared after applying the paper's output convention
// ("'?' entries may be set to 0"): comparing raw partial vectors with
// the ?-ignoring metric would let a mostly-undetermined vector beat a
// fully-specified one by being unfalsifiable on the few coordinates it
// commits to, even though its filled form is far from the truth.
func pickBest(env *Env, runs [][]bitvec.Partial, players, objs []int) []bitvec.Partial {
	out := make([]bitvec.Partial, env.N)
	cLogN := RSelSamples(env.Cfg, env.N)
	tag := env.freshTag("rsel")
	env.phase(players, func(p int) {
		cands := make([]bitvec.Partial, 0, len(runs))
		for _, r := range runs {
			if r[p].Len() > 0 {
				cands = append(cands, bitvec.PartialOf(r[p].Fill(0)))
			}
		}
		if len(cands) == 0 {
			out[p] = bitvec.NewPartial(env.M)
			return
		}
		pl := env.Engine.Player(p)
		r := env.Public.Stream(tag, p)
		out[p] = cands[RSelect(pl, r, objs, cands, cLogN)]
	})
	return out
}

// AnytimePhase reports the state after one phase of the anytime
// algorithm.
type AnytimePhase struct {
	// Phase is the 1-based phase index; phase j ran with α = 2^{-j}.
	Phase int
	// Alpha is the frequency parameter the phase assumed.
	Alpha float64
	// Outputs is each player's best output so far.
	Outputs []bitvec.Partial
	// MaxProbes is the maximum per-player probe count so far.
	MaxProbes int64
}

// Anytime implements Section 6's doubling scheme for unknown α (and
// unknown D): phase j runs the unknown-D algorithm with α = 2^{-j}, and
// players keep whichever output (across phases) looks closest via
// RSelect. It stops when the per-player probe budget is exhausted, when
// α drops below log n/n (below which going solo is better, per §3), or
// when observe returns false. observe may be nil.
//
// Returns the final best outputs. The quality after each phase is close
// to the best achievable with that phase's budget — the "anytime"
// property of Section 6.
func Anytime(env *Env, budget int64, observe func(AnytimePhase) bool) []bitvec.Partial {
	best := make([]bitvec.Partial, env.N)
	players := allPlayers(env.N)
	objs := allObjects(env.M)
	cLogN := RSelSamples(env.Cfg, env.N)
	minAlpha := math.Log(float64(env.N)+1) / float64(env.N)

	maxProbes := func() int64 {
		var worst int64
		for p := 0; p < env.N; p++ {
			if c := env.Engine.Charged(p); c > worst {
				worst = c
			}
		}
		return worst
	}

	for j := 1; ; j++ {
		env.checkAborted()
		alpha := math.Pow(2, -float64(j))
		if alpha < minAlpha {
			break
		}
		outs := UnknownD(env, alpha)
		env.phase(players, func(p int) {
			if best[p].Len() == 0 {
				best[p] = outs[p]
				return
			}
			// best and outs are already Fill(0)-normalized by pickBest.
			cands := []bitvec.Partial{best[p], outs[p]}
			pl := env.Engine.Player(p)
			r := env.Public.Stream("anytime-rsel", p*1024+j)
			best[p] = cands[RSelect(pl, r, objs, cands, cLogN)]
		})
		// Phase j is complete: its keep-best barrier has drained, so
		// best is a consistent output set. Checkpoint it — an abort in
		// phase j+1 then reports exactly phase j's outputs (entries are
		// only ever replaced, never mutated, so the copied slice stays
		// intact while the next phase reassigns best).
		env.saveCheckpoint(best, j)
		mp := maxProbes()
		if observe != nil && !observe(AnytimePhase{Phase: j, Alpha: alpha, Outputs: best, MaxProbes: mp}) {
			break
		}
		if budget > 0 && mp >= budget {
			break
		}
	}
	return best
}
