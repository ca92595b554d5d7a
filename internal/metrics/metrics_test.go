package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tellme/internal/billboard"
	"tellme/internal/bitvec"
	"tellme/internal/prefs"
	"tellme/internal/probe"
	"tellme/internal/rng"
)

func perfectOutputs(in *prefs.Instance) []bitvec.Partial {
	out := make([]bitvec.Partial, in.N)
	for p := 0; p < in.N; p++ {
		out[p] = bitvec.PartialOf(in.Truth[p])
	}
	return out
}

func TestDiscrepancyPerfect(t *testing.T) {
	in := prefs.Planted(20, 40, 0.5, 4, 1)
	out := perfectOutputs(in)
	if d := Discrepancy(in, in.Communities[0].Members, out); d != 0 {
		t.Fatalf("Discrepancy = %d", d)
	}
	if e := MeanErr(in, in.Communities[0].Members, out); e != 0 {
		t.Fatalf("MeanErr = %v", e)
	}
}

func TestDiscrepancyCountsWorst(t *testing.T) {
	in := prefs.Identical(5, 32, 1.0, 2)
	out := perfectOutputs(in)
	// corrupt player 3 with 7 flips
	v := in.Truth[3].Clone()
	v.FlipRandom(rng.New(9), 7)
	out[3] = bitvec.PartialOf(v)
	if d := Discrepancy(in, []int{0, 1, 2, 3, 4}, out); d != 7 {
		t.Fatalf("Discrepancy = %d, want 7", d)
	}
	want := 7.0 / 5.0
	if e := MeanErr(in, []int{0, 1, 2, 3, 4}, out); math.Abs(e-want) > 1e-9 {
		t.Fatalf("MeanErr = %v, want %v", e, want)
	}
}

func TestStretch(t *testing.T) {
	in := prefs.Planted(40, 128, 0.5, 8, 3)
	c := in.Communities[0]
	out := perfectOutputs(in)
	if s := Stretch(in, c.Members, out); s != 0 {
		t.Fatalf("perfect stretch = %v", s)
	}
	// corrupt one member by 2× diameter
	diam := in.Diameter(c.Members)
	if diam == 0 {
		t.Skip("degenerate diameter")
	}
	v := in.Truth[c.Members[0]].Clone()
	v.FlipRandom(rng.New(4), 2*diam)
	out[c.Members[0]] = bitvec.PartialOf(v)
	s := Stretch(in, c.Members, out)
	if s < 1.9 || s > 2.1 {
		t.Fatalf("stretch = %v, want ≈2", s)
	}
}

func TestProbesStats(t *testing.T) {
	in := prefs.Planted(4, 32, 0.5, 2, 6)
	b := billboard.New(in.N, in.M)
	e := probe.NewEngine(in, b, rng.NewSource(7))
	for i := 0; i < 5; i++ {
		e.Player(0).Probe(i)
	}
	e.Player(2).Probe(0)
	st := Probes(e, in.N, nil)
	if st.Max != 5 || st.Total != 6 || math.Abs(st.Mean-1.5) > 1e-9 {
		t.Fatalf("stats = %+v", st)
	}
	snap := e.Snapshot(nil)
	e.Player(1).Probe(3)
	st = Probes(e, in.N, snap)
	if st.Max != 1 || st.Total != 1 {
		t.Fatalf("delta stats = %+v", st)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-1.29099) > 1e-4 {
		t.Fatalf("std = %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 {
		t.Fatalf("single summary = %+v", one)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"n", "value"},
	}
	tab.AddRow(128, 3.14159)
	tab.AddRow("big", "x")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "n    value", "128  3.142", "big  x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}}
	tab.AddRow(`say "hi"`, "x,y")
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"say \"\"hi\"\"\",\"x,y\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a"}}
	tab.AddRow(1)
	var buf bytes.Buffer
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "### T") || !strings.Contains(out, "| a |") || !strings.Contains(out, "| 1 |") {
		t.Fatalf("markdown:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3.14159: "3.142",
		2:       "2",
		0:       "0",
		-1.5:    "-1.5",
		0.1:     "0.1",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkTableRender(b *testing.B) {
	tab := Table{Title: "bench", Header: []string{"a", "b", "c"}}
	for i := 0; i < 200; i++ {
		tab.AddRow(i, float64(i)*1.5, "xyz")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = tab.Render(&buf)
	}
}

func BenchmarkDiscrepancy(b *testing.B) {
	in := prefs.Planted(512, 512, 0.5, 8, 1)
	out := perfectOutputs(in)
	comm := in.Communities[0].Members
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Discrepancy(in, comm, out)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 1); p != 4 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 0.5); p != 2.5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty = %v", p)
	}
	// input must not be mutated
	if xs[0] != 4 {
		t.Fatal("Percentile mutated input")
	}
}
