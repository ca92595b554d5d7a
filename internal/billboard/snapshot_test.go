package billboard

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"tellme/internal/bitvec"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	b := New(4, 16)
	b.PostProbe(0, 3, 1)
	b.PostProbe(0, 7, 0)
	b.PostProbe(2, 3, 1)
	p, _ := bitvec.PartialFromString("01?1")
	b.Post("vecs", 1, p)
	b.PostVector("vecs", 2, mustParse(t, "0101"))
	b.PostValues("vals", 3, []uint32{7, 8, 9})

	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 4 || got.M() != 16 {
		t.Fatalf("dims %dx%d", got.N(), got.M())
	}
	if v, ok := got.LookupProbe(0, 3); !ok || v != 1 {
		t.Fatal("probe (0,3) lost")
	}
	if v, ok := got.LookupProbe(0, 7); !ok || v != 0 {
		t.Fatal("probe (0,7) lost")
	}
	if got.ProbeCount() != 3 {
		t.Fatalf("ProbeCount %d", got.ProbeCount())
	}
	vecs := got.Postings("vecs")
	if len(vecs) != 2 {
		t.Fatalf("%d vector postings", len(vecs))
	}
	foundPartial := false
	for _, po := range vecs {
		if po.Player == 1 && po.Vec.Equal(p) {
			foundPartial = true
		}
	}
	if !foundPartial {
		t.Fatal("partial posting lost")
	}
	vals := got.ValuePostings("vals")
	if len(vals) != 1 || vals[0].Vals[2] != 9 {
		t.Fatalf("value postings: %+v", vals)
	}
}

func TestRestoreRejectsInvalid(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"n":0,"m":4}`,
		`{"n":2,"m":4,"probes":{"0":[{"o":9,"g":1}]}}`,
		`{"n":2,"m":4,"probes":{"0":[{"o":0,"g":5}]}}`,
		`{"n":2,"m":4,"probes":{"2":[{"o":0,"g":1}]}}`,
		`{"n":2,"m":4,"probes":{"-1":[{"o":0,"g":1}]}}`,
		`{"n":2,"m":4,"probes":{"x":[{"o":0,"g":1}]}}`,
		// The dense format, a row per player, no longer restores.
		`{"n":1,"m":4,"probes":[[{"o":0,"g":1}]]}`,
		`{"n":1,"m":2,"topics":{"t":{"vectors":[{"player":0,"bits":"0x"}]}}}`,
	}
	for i, c := range cases {
		if _, err := Restore(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
}

// TestSnapshotSparseProbeRows: a snapshot holds only the players that
// posted, so a million-player board with three posted players
// snapshots to a few hundred bytes and restores to the same state.
func TestSnapshotSparseProbeRows(t *testing.T) {
	const n, m = 1 << 20, 512
	b := New(n, m)
	b.PostProbe(3, 511, 1)
	b.PostProbes(700000, []int{0, 64, 65}, []byte{1, 0, 1})
	b.PostProbe(n-1, 7, 0)
	// The first snapshot also fills encoding/json's per-type caches;
	// measure the second.
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if buf.Len() > 256 {
		t.Errorf("snapshot is %d bytes, want at most 256: %s", buf.Len(), buf.Bytes())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<10 {
		t.Errorf("snapshot allocated %d bytes, want at most 4 KiB", alloc)
	}
	snap := buf.String()
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProbeCount() != 5 {
		t.Fatalf("ProbeCount %d, want 5", got.ProbeCount())
	}
	for _, pr := range []struct {
		p, o int
		g    byte
	}{{3, 511, 1}, {700000, 0, 1}, {700000, 64, 0}, {700000, 65, 1}, {n - 1, 7, 0}} {
		if g, ok := got.LookupProbe(pr.p, pr.o); !ok || g != pr.g {
			t.Errorf("probe (%d,%d) restored as (%d,%v), want %d", pr.p, pr.o, g, ok, pr.g)
		}
	}
	var again bytes.Buffer
	if err := got.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != snap {
		t.Fatalf("restored board snapshots differently:\n%s\n%s", again.String(), snap)
	}
}

func TestSnapshotEmptyBoard(t *testing.T) {
	b := New(2, 2)
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProbeCount() != 0 || got.TopicCount() != 0 {
		t.Fatal("empty board restored non-empty")
	}
}

func mustParse(t *testing.T, s string) bitvec.Vector {
	t.Helper()
	v, err := bitvec.FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
