package tellme

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tellme/internal/billboard"
	"tellme/internal/netboard"
	"tellme/internal/netboard/faultnet"
)

func TestRunAgainstRemoteBoard(t *testing.T) {
	in := IdenticalInstance(48, 48, 0.5, 21)

	local, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}

	// Both wire codecs must reproduce the local run byte for byte.
	for _, codec := range []string{"json", "binary"} {
		t.Run(codec, func(t *testing.T) {
			board := billboard.New(in.N, in.M)
			srv := httptest.NewServer(netboard.NewServer(board))
			defer srv.Close()
			remote, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 22, BoardURL: srv.URL, BoardCodec: codec})
			if err != nil {
				t.Fatal(err)
			}

			// Determinism: identical outputs local vs remote.
			for p := 0; p < in.N; p++ {
				if !local.Outputs[p].Equal(remote.Outputs[p]) {
					t.Fatalf("player %d output differs between local and remote board", p)
				}
			}
			if local.MaxProbes != remote.MaxProbes {
				t.Fatalf("probe accounting differs: %d vs %d", local.MaxProbes, remote.MaxProbes)
			}
			// The remote board really saw the traffic.
			if board.ProbeCount() == 0 || board.VectorPostCount() != 0 {
				// vector topics are dropped at the end of ZeroRadius, but probe
				// postings persist
				if board.ProbeCount() == 0 {
					t.Fatal("remote board saw no probes")
				}
			}
		})
	}
}

// TestRunBoardURLTrimsShardURLs checks that BoardURL's shard URLs are
// trimmed: a spec with spaces around its URLs addresses the same
// cluster as the bare one, and the run reproduces its outputs.
func TestRunBoardURLTrimsShardURLs(t *testing.T) {
	in := IdenticalInstance(32, 32, 0.5, 5)
	run := func(spec func(u0, u1 string) string) *Report {
		t.Helper()
		var urls [2]string
		for i := range urls {
			srv := httptest.NewServer(netboard.NewServer(billboard.New(in.N, in.M)))
			t.Cleanup(srv.Close)
			urls[i] = srv.URL
		}
		rep, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 6, BoardURL: spec(urls[0], urls[1])})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(func(u0, u1 string) string { return u0 + "," + u1 })
	for _, spec := range []func(u0, u1 string) string{
		func(u0, u1 string) string { return u0 + ", " + u1 },
		func(u0, u1 string) string { return " " + u0 + " ,\t" + u1 + " " },
	} {
		got := run(spec)
		for p := range want.Outputs {
			if !got.Outputs[p].Equal(want.Outputs[p]) {
				t.Fatalf("spec %q: player %d output differs from the untrimmed spec's", spec("u0", "u1"), p)
			}
		}
		if got.MaxProbes != want.MaxProbes {
			t.Fatalf("spec %q: max probes %d, want %d", spec("u0", "u1"), got.MaxProbes, want.MaxProbes)
		}
	}
}

func TestRunRejectsUnknownCodec(t *testing.T) {
	in := IdenticalInstance(8, 8, 0.5, 21)
	if _, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 1, BoardURL: "http://localhost:1", BoardCodec: "gob"}); err == nil {
		t.Fatal("unknown BoardCodec accepted")
	}
}

// TestRunOverFlakyTransport: runs through Options.Board with a
// fault-injecting transport produce exactly the outputs of a local run:
// retries recover every dropped request, and request-id dedupe absorbs
// every re-delivery of a post the server already committed. One run
// sends only a few requests, so the test makes flakyRuns of them, each
// against a fresh server with its own fault seed, and checks that
// every fault class fired in them.
func TestRunOverFlakyTransport(t *testing.T) {
	const flakyRuns = 8
	in := IdenticalInstance(48, 48, 0.5, 21)
	local, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}

	var dropped, lost, duplicated int64
	for seed := int64(33); seed < 33+flakyRuns; seed++ {
		srv := httptest.NewServer(netboard.NewServer(billboard.New(in.N, in.M)))
		ft := faultnet.New(nil, seed)
		ft.DropRequest, ft.DropResponse, ft.Duplicate = 0.1, 0.1, 0.2
		client, err := netboard.FromSpec(srv.URL, netboard.Config{
			HTTPClient:   &http.Client{Transport: ft},
			Retries:      40,
			RetryBackoff: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := Run(in, Options{Algorithm: AlgoZero, Alpha: 0.5, Seed: 22, Board: client})
		srv.Close()
		if err != nil {
			t.Fatalf("fault seed %d: %v", seed, err)
		}
		for p := 0; p < in.N; p++ {
			if !local.Outputs[p].Equal(remote.Outputs[p]) {
				t.Fatalf("fault seed %d: player %d output differs under flaky transport", seed, p)
			}
		}
		if local.MaxProbes != remote.MaxProbes {
			t.Fatalf("fault seed %d: probe accounting differs: %d vs %d", seed, local.MaxProbes, remote.MaxProbes)
		}
		dropped += ft.DroppedRequests()
		lost += ft.LostResponses()
		duplicated += ft.Duplicated()
	}
	t.Logf("%d dropped requests, %d lost responses, %d duplicates in %d runs", dropped, lost, duplicated, flakyRuns)
	if dropped == 0 || lost == 0 || duplicated == 0 {
		t.Fatalf("%d dropped requests, %d lost responses, %d duplicates: a fault class never fired, so the test does not prove its retries and dedupe", dropped, lost, duplicated)
	}
}

func TestSaveLoadInstanceFacade(t *testing.T) {
	in := PlantedInstance(32, 64, 0.5, 6, 23)
	var buf bytes.Buffer
	if err := SaveInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != in.N || got.M != in.M {
		t.Fatalf("dims %dx%d", got.N, got.M)
	}
	for p := 0; p < in.N; p++ {
		if !got.Truth[p].Equal(in.Truth[p]) {
			t.Fatalf("row %d differs", p)
		}
	}
	// loaded instance runs identically
	a, err := Run(in, Options{Algorithm: AlgoSmall, Alpha: 0.5, D: 6, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(got, Options{Algorithm: AlgoSmall, Alpha: 0.5, D: 6, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < in.N; p++ {
		if !a.Outputs[p].Equal(b.Outputs[p]) {
			t.Fatalf("run on loaded instance diverged at %d", p)
		}
	}

	var jbuf bytes.Buffer
	if err := SaveInstanceJSON(&jbuf, in); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadInstanceJSON(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.N != in.N {
		t.Fatal("JSON round trip failed")
	}
}

func TestRunReportsSubAlgorithmCounts(t *testing.T) {
	in := PlantedInstance(128, 128, 0.5, 16, 25)
	rep, err := Run(in, Options{Algorithm: AlgoLarge, Alpha: 0.5, D: 16, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubAlgorithmRuns["LargeRadius"] != 1 {
		t.Fatalf("LargeRadius count %d", rep.SubAlgorithmRuns["LargeRadius"])
	}
	if rep.SubAlgorithmRuns["ZeroRadius"] < 1 || rep.SubAlgorithmRuns["SmallRadius"] < 1 {
		t.Fatalf("missing nested counts: %v", rep.SubAlgorithmRuns)
	}
}
