package prefs

import "sort"

// BestD returns D_p(α) from Section 6: the minimal D such that at least
// an α fraction of all players lie within Hamming distance D of player
// p. This is ground-truth analysis (it reads the hidden matrix), used to
// evaluate how close an algorithm's output quality comes to the best
// community available to each player.
func (in *Instance) BestD(p int, alpha float64) int {
	k := int(alpha * float64(in.N))
	if k < 1 {
		k = 1
	}
	if k > in.N {
		k = in.N
	}
	dists := make([]int, in.N)
	for q := 0; q < in.N; q++ {
		dists[q] = in.Truth[p].Dist(in.Truth[q])
	}
	sort.Ints(dists)
	return dists[k-1] // p itself contributes distance 0
}
