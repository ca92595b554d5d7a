package prefs

import "testing"

func TestBestDIdenticalCommunity(t *testing.T) {
	in := Identical(100, 200, 0.4, 21)
	c := in.Communities[0]
	p := c.Members[0]
	// 40 players share p's vector: for α ≤ 0.4, D_p(α) = 0.
	if d := in.BestD(p, 0.4); d != 0 {
		t.Fatalf("BestD(0.4) = %d, want 0", d)
	}
	if d := in.BestD(p, 0.3); d != 0 {
		t.Fatalf("BestD(0.3) = %d, want 0", d)
	}
	// asking for more than the community forces distant players in
	if d := in.BestD(p, 0.9); d <= 0 {
		t.Fatalf("BestD(0.9) = %d, want > 0", d)
	}
}

func TestBestDMonotoneInAlpha(t *testing.T) {
	in := Planted(80, 120, 0.5, 10, 22)
	p := in.Communities[0].Members[0]
	prev := -1
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		d := in.BestD(p, a)
		if d < prev {
			t.Fatalf("BestD not monotone: alpha=%v d=%d prev=%d", a, d, prev)
		}
		prev = d
		// At least an α fraction of the players lie within BestD of p.
		within := 0
		for q := 0; q < in.N; q++ {
			if in.Truth[p].Dist(in.Truth[q]) <= d {
				within++
			}
		}
		if within < int(a*float64(in.N)) {
			t.Fatalf("alpha=%v: %d players within BestD %d", a, within, d)
		}
	}
}

func TestBestDSelfOnly(t *testing.T) {
	in := UniformRandom(10, 50, 23)
	// tiny alpha → community of 1 → distance 0 (yourself)
	if d := in.BestD(3, 0.05); d != 0 {
		t.Fatalf("BestD tiny alpha = %d", d)
	}
}
