package billboard

import (
	"slices"
	"sort"
)

// tallyVotes groups identical vectors; see Votes for the order contract.
func tallyVotes(postings []Posting) []Vote {
	byKey := make(map[string]int, len(postings))
	out := make([]Vote, 0, 8)
	var kb []byte
	for _, p := range postings {
		kb = p.Vec.AppendKey(kb[:0])
		i, ok := byKey[string(kb)]
		if !ok {
			i = len(out)
			out = append(out, Vote{Vec: p.Vec})
			byKey[string(kb)] = i
		}
		out[i].Count++
		out[i].Voters = append(out[i].Voters, p.Player)
	}
	for _, g := range out {
		sort.Ints(g.Voters)
	}
	// slices.SortFunc over sort.Slice: no reflection-based swaps on a
	// path every tally read runs. The comparator is a strict
	// total order over distinct groups, so the (unstable) algorithm
	// cannot show through.
	slices.SortFunc(out, func(a, b Vote) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if a.Vec.Less(b.Vec) {
			return -1
		}
		return 1
	})
	return out
}

// tallyValueVotes groups identical value vectors; see ValueVotes.
func tallyValueVotes(values []ValuePosting) []ValueVote {
	byKey := make(map[string]int, len(values))
	out := make([]ValueVote, 0, 8)
	var kb []byte
	for _, p := range values {
		kb = appendValsKey(kb[:0], p.Vals)
		i, ok := byKey[string(kb)]
		if !ok {
			i = len(out)
			out = append(out, ValueVote{Vals: p.Vals})
			byKey[string(kb)] = i
		}
		out[i].Count++
		out[i].Voters = append(out[i].Voters, p.Player)
	}
	for _, g := range out {
		sort.Ints(g.Voters)
	}
	slices.SortFunc(out, func(a, b ValueVote) int { // see tallyVotes
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if lessVals(a.Vals, b.Vals) {
			return -1
		}
		return 1
	})
	return out
}
