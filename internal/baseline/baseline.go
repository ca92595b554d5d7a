// Package baseline implements the comparison algorithms the paper's
// related-work section measures the main result against:
//
//   - Solo: every player probes every object — the "go it alone" upper
//     bound on cost and lower bound on error.
//   - SampleMajority: probe a random budget of objects and fill the rest
//     with the global per-object majority — collaboration that ignores
//     taste diversity entirely.
//   - KNN: probe a random budget, then adopt the majority grade of the k
//     most similar players (classic memory-based collaborative
//     filtering adapted to the probe model).
//   - Spectral: the SVD approach of Drineas et al. [6] — reconstruct the
//     sampled matrix from its top singular vectors and threshold. Works
//     when the matrix is near low-rank; degrades on adversarial inputs,
//     which is exactly the gap the paper's algorithms close.
//
// All baselines use the same probe engine as the core algorithms, so
// probe budgets and round counts are directly comparable.
package baseline

import (
	"sort"

	"tellme/internal/bitvec"
	"tellme/internal/probe"
	"tellme/internal/rng"
	"tellme/internal/sim"
)

// Solo has every player probe every object; outputs are exact.
func Solo(e *probe.Engine, runner *sim.Runner) []bitvec.Partial {
	in := e.Instance()
	out := make([]bitvec.Partial, in.N)
	sim.MustPhaseAll(runner, in.N, func(p int) {
		pl := e.Player(p)
		w := bitvec.NewPartial(in.M)
		for o := 0; o < in.M; o++ {
			w.SetBit(o, pl.Probe(o))
		}
		out[p] = w
	})
	return out
}

// probeTallier is the optional fast path for the per-object grade tally
// the baselines share: the in-memory Board computes it word-parallel
// over its packed probe planes. A wrapper that embeds
// boardclient.Interface, or a network client, doesn't expose it and
// falls back to the per-probe walk; boardclient.BindContext returns the
// in-memory Board itself, so a bound run keeps the fast path.
type probeTallier interface {
	ProbeTally(ones, total []int) ([]int, []int)
}

// probeTally returns ones[o] / total[o] tallies of all posted grades.
func probeTally(e *probe.Engine, n, m int) (ones, total []int) {
	if pt, ok := e.Board().(probeTallier); ok {
		return pt.ProbeTally(nil, nil)
	}
	ones = make([]int, m)
	total = make([]int, m)
	for p := 0; p < n; p++ {
		e.Board().ForEachProbe(p, func(o int, v byte) {
			total[o]++
			if v == 1 {
				ones[o]++
			}
		})
	}
	return ones, total
}

// sampleProbes has every player probe `budget` uniformly random distinct
// objects (all of them if budget ≥ m), posting to the billboard.
func sampleProbes(e *probe.Engine, runner *sim.Runner, budget int, src rng.Source) {
	in := e.Instance()
	sim.MustPhaseAll(runner, in.N, func(p int) {
		pl := e.Player(p)
		r := src.Stream("sample", p)
		if budget >= in.M {
			for o := 0; o < in.M; o++ {
				pl.Probe(o)
			}
			return
		}
		perm := r.Perm(in.M)
		for _, o := range perm[:budget] {
			pl.Probe(o)
		}
	})
}

// SampleMajority probes a random budget per player and predicts every
// unprobed object by the global majority of posted grades (ties and
// never-probed objects default to 0).
func SampleMajority(e *probe.Engine, runner *sim.Runner, budget int, src rng.Source) []bitvec.Partial {
	in := e.Instance()
	sampleProbes(e, runner, budget, src)
	ones, total := probeTally(e, in.N, in.M)
	majority := bitvec.New(in.M)
	for o := 0; o < in.M; o++ {
		if 2*ones[o] > total[o] {
			majority.Set(o, 1)
		}
	}
	out := make([]bitvec.Partial, in.N)
	sim.MustPhaseAll(runner, in.N, func(p int) {
		w := bitvec.NewPartial(in.M)
		for o := 0; o < in.M; o++ {
			w.SetBit(o, majority.Get(o))
		}
		e.Board().ForEachProbe(p, func(o int, v byte) {
			w.SetBit(o, v)
		})
		out[p] = w
	})
	return out
}

// KNN probes a random budget per player, ranks other players by
// disagreement rate on co-probed objects, and predicts each unprobed
// object by the majority grade among the k nearest neighbors that
// probed it (falling back to the global majority, then 0).
func KNN(e *probe.Engine, runner *sim.Runner, budget, k int, src rng.Source) []bitvec.Partial {
	in := e.Instance()
	sampleProbes(e, runner, budget, src)
	board := e.Board()

	// Snapshot everyone's probes once.
	probes := make([]map[int]byte, in.N)
	for p := 0; p < in.N; p++ {
		probes[p] = board.ProbedObjects(p)
	}
	ones, total := probeTally(e, in.N, in.M)

	out := make([]bitvec.Partial, in.N)
	sim.MustPhaseAll(runner, in.N, func(p int) {
		type scored struct {
			q    int
			rate float64
		}
		cand := make([]scored, 0, in.N-1)
		for q := 0; q < in.N; q++ {
			if q == p {
				continue
			}
			overlap, diff := 0, 0
			small, big := probes[p], probes[q]
			if len(big) < len(small) {
				small, big = big, small
			}
			for o, v := range small {
				if w, ok := big[o]; ok {
					overlap++
					if v != w {
						diff++
					}
				}
			}
			if overlap == 0 {
				continue
			}
			cand = append(cand, scored{q, float64(diff) / float64(overlap)})
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].rate != cand[j].rate {
				return cand[i].rate < cand[j].rate
			}
			return cand[i].q < cand[j].q
		})
		if len(cand) > k {
			cand = cand[:k]
		}
		w := bitvec.NewPartial(in.M)
		for o := 0; o < in.M; o++ {
			if v, ok := probes[p][o]; ok {
				w.SetBit(o, v)
				continue
			}
			vote1, votes := 0, 0
			for _, c := range cand {
				if v, ok := probes[c.q][o]; ok {
					votes++
					if v == 1 {
						vote1++
					}
				}
			}
			switch {
			case votes > 0 && 2*vote1 > votes:
				w.SetBit(o, 1)
			case votes > 0:
				w.SetBit(o, 0)
			case 2*ones[o] > total[o]:
				w.SetBit(o, 1)
			default:
				w.SetBit(o, 0)
			}
		}
		out[p] = w
	})
	return out
}
