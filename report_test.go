package tellme

import (
	"bytes"
	"strings"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	in := PlantedInstance(32, 32, 0.5, 4, 40)
	rep, err := Run(in, Options{Algorithm: AlgoSmall, Alpha: 0.5, D: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxProbes != rep.MaxProbes || got.TotalProbes != rep.TotalProbes {
		t.Fatalf("probe stats changed: %+v", got)
	}
	if len(got.Outputs) != in.N {
		t.Fatalf("%d outputs", len(got.Outputs))
	}
	for p := 0; p < in.N; p++ {
		if !got.Outputs[p].Equal(rep.Outputs[p]) {
			t.Fatalf("output %d changed", p)
		}
	}
	if len(got.Communities) != 1 || got.Communities[0].Discrepancy != rep.Communities[0].Discrepancy {
		t.Fatalf("communities changed: %+v", got.Communities)
	}
	if got.SubAlgorithmRuns["ZeroRadius"] != rep.SubAlgorithmRuns["ZeroRadius"] {
		t.Fatal("sub-run counts changed")
	}
}

func TestSaveReportNil(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveReport(&buf, nil); err == nil {
		t.Fatal("nil report accepted")
	}
}

func TestLoadReportRejectsBadOutputs(t *testing.T) {
	if _, err := LoadReport(strings.NewReader(`{"outputs":["01x"]}`)); err == nil {
		t.Fatal("bad output vector accepted")
	}
	if _, err := LoadReport(strings.NewReader(`garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
