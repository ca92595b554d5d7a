package tellme

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tellme/internal/bitvec"
)

func TestRunAutoOnPlanted(t *testing.T) {
	in := PlantedInstance(128, 128, 0.5, 6, 1)
	rep, err := Run(in, Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != 128 {
		t.Fatalf("%d outputs", len(rep.Outputs))
	}
	if len(rep.Communities) != 1 {
		t.Fatalf("%d community reports", len(rep.Communities))
	}
	cr := rep.Communities[0]
	if cr.Stretch > 10 {
		t.Fatalf("stretch %v", cr.Stretch)
	}
	if rep.MaxProbes <= 0 || rep.TotalProbes < rep.MaxProbes {
		t.Fatalf("probe stats: %+v", rep)
	}
}

func TestRunZeroExact(t *testing.T) {
	in := IdenticalInstance(128, 128, 0.5, 3)
	rep, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy != 0 {
		t.Fatalf("discrepancy %d", rep.Communities[0].Discrepancy)
	}
	if rep.MaxProbes >= int64(in.M) {
		t.Fatalf("MaxProbes %d not sublinear", rep.MaxProbes)
	}
}

func TestRunSmallBound(t *testing.T) {
	in := PlantedInstance(256, 256, 0.5, 4, 5)
	rep, err := Run(in, Options{Algorithm: AlgoSmall, Alpha: 0.5, D: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy > 20 {
		t.Fatalf("discrepancy %d > 5D", rep.Communities[0].Discrepancy)
	}
}

func TestRunLarge(t *testing.T) {
	in := PlantedInstance(256, 256, 0.5, 24, 7)
	rep, err := Run(in, Options{Algorithm: AlgoLarge, Alpha: 0.5, D: 24, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy > 24*8*2 {
		t.Fatalf("discrepancy %d", rep.Communities[0].Discrepancy)
	}
}

func TestRunMainDispatch(t *testing.T) {
	in := PlantedInstance(128, 128, 0.5, 0, 9)
	rep, err := Run(in, Options{Algorithm: AlgoMain, Alpha: 0.5, D: 0, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy != 0 {
		t.Fatalf("main D=0 discrepancy %d", rep.Communities[0].Discrepancy)
	}
}

func TestRunAnytimePhases(t *testing.T) {
	in := PlantedInstance(128, 128, 0.25, 4, 11)
	var phases []PhaseInfo
	rep, err := Run(in, Options{
		Algorithm: AlgoAnytime,
		Seed:      12,
		OnPhase: func(ph PhaseInfo) bool {
			phases = append(phases, ph)
			return ph.Phase < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) == 0 || phases[0].Phase != 1 {
		t.Fatalf("phases: %+v", phases)
	}
	for _, o := range rep.Outputs {
		if o.Len() != in.M {
			t.Fatal("incomplete output")
		}
	}
}

func TestRunReproducible(t *testing.T) {
	in := PlantedInstance(64, 64, 0.5, 4, 13)
	run := func() string {
		rep, err := Run(in, Options{Algorithm: AlgoAuto, Alpha: 0.5, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, o := range rep.Outputs {
			s += o.String()
		}
		return s
	}
	if run() != run() {
		t.Fatal("same seed produced different outputs")
	}
}

func TestRunValidation(t *testing.T) {
	in := PlantedInstance(16, 16, 0.5, 2, 15)
	if _, err := Run(nil, Options{Alpha: 0.5}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := Run(in, Options{Alpha: 0}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := Run(in, Options{Alpha: 1.5}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := Run(in, Options{Alpha: 0.5, D: 99}); err == nil {
		t.Fatal("D > m accepted")
	}
	if _, err := Run(in, Options{Alpha: 0.5, Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestRunWithNoise(t *testing.T) {
	// With heavy probe noise the guarantees vanish, but the run must
	// complete and produce total outputs.
	in := IdenticalInstance(64, 64, 0.5, 16)
	rep, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 17, FlipNoise: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy == 0 {
		t.Log("noise run happened to be exact (unlikely but legal)")
	}
}

func TestRunCustomInstance(t *testing.T) {
	v1, _ := VectorFromString("0101")
	v2, _ := VectorFromString("0101")
	v3, _ := VectorFromString("1010")
	in := CustomInstance([]Vector{v1, v2, v3})
	rep, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.6, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Communities) != 0 {
		t.Fatal("custom instance should have no community metadata")
	}
	// Tiny instance: brute-force path, outputs exact for everyone.
	for p, want := range []Vector{v1, v2, v3} {
		if rep.Outputs[p].DistKnownVec(want) != 0 {
			t.Fatalf("player %d output wrong", p)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgoAuto:       "auto(unknown D)",
		AlgoMain:       "main(known D)",
		AlgoZero:       "zero-radius",
		AlgoSmall:      "small-radius",
		AlgoLarge:      "large-radius",
		AlgoAnytime:    "anytime",
		Algorithm(100): "invalid",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", a, a.String())
		}
	}
}

func TestMultiCommunityInstanceReports(t *testing.T) {
	in := MultiCommunityInstance(128, 128, []CommunitySpec{
		{Alpha: 0.4, D: 0},
		{Alpha: 0.3, D: 4},
	}, 19)
	rep, err := Run(in, Options{Algorithm: AlgoAuto, Alpha: 0.3, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Communities) != 2 {
		t.Fatalf("%d community reports", len(rep.Communities))
	}
}

func TestRunBaselineValidation(t *testing.T) {
	in := PlantedInstance(16, 16, 0.5, 2, 60)
	if _, err := RunBaseline(nil, BaselineOptions{Baseline: BaselineSolo}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := RunBaseline(in, BaselineOptions{Baseline: BaselineKNN}); err == nil {
		t.Fatal("zero budget accepted for sampled baseline")
	}
	if _, err := RunBaseline(in, BaselineOptions{Baseline: Baseline(42), Budget: 4}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
	// solo needs no budget
	if _, err := RunBaseline(in, BaselineOptions{Baseline: BaselineSolo}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineString(t *testing.T) {
	names := map[Baseline]string{
		BaselineSolo:     "solo",
		BaselineMajority: "majority",
		BaselineKNN:      "kNN",
		BaselineSpectral: "spectral",
		Baseline(9):      "invalid",
	}
	for b, want := range names {
		if b.String() != want {
			t.Fatalf("%d.String() = %q", b, b.String())
		}
	}
}

func TestRunBaselineCommunityReports(t *testing.T) {
	in := IdenticalInstance(64, 64, 0.5, 61)
	rep, err := RunBaseline(in, BaselineOptions{Baseline: BaselineSolo, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Communities) != 1 || rep.Communities[0].Discrepancy != 0 {
		t.Fatalf("solo community report: %+v", rep.Communities)
	}
	if rep.MaxProbes != int64(in.M) {
		t.Fatalf("solo MaxProbes %d", rep.MaxProbes)
	}
}

func TestEvaluateCustomSet(t *testing.T) {
	in := PlantedInstance(64, 64, 0.5, 6, 90)
	rep, err := Run(in, Options{Algorithm: AlgoMain, Alpha: 0.5, D: 6, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	comm := in.Communities[0].Members
	got := Evaluate(in, comm, rep.Outputs)
	want := rep.Communities[0]
	if got != want {
		t.Fatalf("Evaluate = %+v, Run reported %+v", got, want)
	}
	// a subset evaluates independently
	sub := Evaluate(in, comm[:3], rep.Outputs)
	if sub.Size != 3 || sub.Discrepancy > want.Discrepancy {
		t.Fatalf("subset report: %+v", sub)
	}
}

func TestRunRefreshEndToEnd(t *testing.T) {
	in := IdenticalInstance(128, 128, 0.5, 95)
	first, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	// drift the world and repair
	in2 := DriftInstance(in, 6, 0, 97)
	rep, err := RunRefresh(in2, first.Outputs, RefreshOptions{Alpha: 0.5, ExpectedDrift: 6, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Communities[0].Discrepancy != 0 {
		t.Fatalf("refresh discrepancy %d", rep.Communities[0].Discrepancy)
	}
	if rep.MaxProbes >= first.MaxProbes {
		t.Fatalf("refresh cost %d not below fresh run %d", rep.MaxProbes, first.MaxProbes)
	}
	// validation
	if _, err := RunRefresh(nil, first.Outputs, RefreshOptions{Alpha: 0.5}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := RunRefresh(in2, first.Outputs[:3], RefreshOptions{Alpha: 0.5}); err == nil {
		t.Fatal("mismatched stale length accepted")
	}
	if _, err := RunRefresh(in2, first.Outputs, RefreshOptions{Alpha: 0}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

// TestRunRefreshStaleLengths feeds RunRefresh one malformed stale
// output. A full-length entry is a returning player and a zero-length
// one a joiner; any other length is a validation error naming the
// player, never a player crash reported as a *RunError.
func TestRunRefreshStaleLengths(t *testing.T) {
	in := IdenticalInstance(64, 64, 0.5, 95)
	first, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	member := in.Communities[0].Members[0]
	for _, length := range []int{0, 32, 65, 128} {
		t.Run(fmt.Sprint(length), func(t *testing.T) {
			stale := append([]Partial(nil), first.Outputs...)
			stale[member] = Partial{}
			if length > 0 {
				stale[member] = bitvec.NewPartial(length)
			}
			rep, err := RunRefresh(in, stale, RefreshOptions{Alpha: 0.5, Seed: 98})
			if length == 0 {
				// The joiner adopts its community's repaired consensus.
				if err != nil {
					t.Fatal(err)
				}
				if out := rep.Outputs[member]; out.Len() != in.M || in.Err(member, out) != 0 {
					t.Fatalf("joiner output %v, want its community's vector", out)
				}
				return
			}
			var runErr *RunError
			if err == nil || errors.As(err, &runErr) || rep != nil {
				t.Fatalf("got report %v, error %v; want a plain validation error and no report", rep != nil, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("player %d", member)) {
				t.Fatalf("error %q does not name player %d", err, member)
			}
		})
	}
}
