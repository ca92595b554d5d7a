package billboard

import (
	"reflect"
	"testing"

	"tellme/internal/rng"
)

// ProbeTally must agree with the ForEachProbe walk it replaces.
func TestProbeTallyMatchesForEachProbe(t *testing.T) {
	const n, m = 37, 130
	b := New(n, m)
	r := rng.New(3)
	for p := 0; p < n; p++ {
		for _, o := range r.Perm(m)[:r.Intn(m)] {
			b.PostProbe(p, o, byte(r.Intn(2)))
		}
	}
	wantOnes := make([]int, m)
	wantTotal := make([]int, m)
	for p := 0; p < n; p++ {
		b.ForEachProbe(p, func(o int, v byte) {
			wantTotal[o]++
			if v == 1 {
				wantOnes[o]++
			}
		})
	}
	ones, total := b.ProbeTally(nil, nil)
	if !reflect.DeepEqual(ones, wantOnes) || !reflect.DeepEqual(total, wantTotal) {
		t.Fatal("ProbeTally differs from ForEachProbe tally")
	}
	// Buffer-reuse contract: capacious buffers are reused in place.
	o2, t2 := b.ProbeTally(ones, total)
	if &o2[0] != &ones[0] || &t2[0] != &total[0] {
		t.Fatal("ProbeTally reallocated despite sufficient capacity")
	}
}
