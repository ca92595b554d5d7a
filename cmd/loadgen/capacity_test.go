package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tellme/internal/telemetry"
)

func snapshotOf(t *testing.T, samples []int64) telemetry.HistogramSnapshot {
	t.Helper()
	reg := telemetry.New()
	h := reg.Histogram("test.ns", telemetry.LatencyBucketsFine())
	for _, s := range samples {
		h.Observe(s)
	}
	return h.Snapshot()
}

func TestBuildRowCapacityMath(t *testing.T) {
	fast := snapshotOf(t, []int64{int64(time.Millisecond), int64(2 * time.Millisecond)})

	// 1000 rounds over 1s at a 1000/s target, low latency: sustained.
	row := buildRow(500, 2, 1000, 1000, time.Second, fast, 50*time.Millisecond)
	if row.Players != 500 || row.Shards != 2 || row.Rounds != 1000 {
		t.Fatalf("row identity fields wrong: %+v", row)
	}
	if row.AchievedRate < 999 || row.AchievedRate > 1001 {
		t.Fatalf("achieved rate %v, want ~1000", row.AchievedRate)
	}
	if !row.Sustained {
		t.Fatalf("fast full-rate row not sustained: %+v", row)
	}

	// Same step but only 900 rounds completed: achieved < 95% of target.
	row = buildRow(500, 2, 1000, 900, time.Second, fast, 50*time.Millisecond)
	if row.Sustained {
		t.Fatalf("90%% throughput row marked sustained: %+v", row)
	}

	// Full throughput but p99 past the SLO: not sustained.
	slow := snapshotOf(t, []int64{int64(200 * time.Millisecond)})
	row = buildRow(500, 2, 1000, 1000, time.Second, slow, 50*time.Millisecond)
	if row.Sustained {
		t.Fatalf("slow row marked sustained: p99=%v", time.Duration(row.P99Ns))
	}
}

func TestMaxSustained(t *testing.T) {
	rows := []CapacityRow{
		{TargetRate: 1000, Sustained: true},
		{TargetRate: 2000, Sustained: true},
		{TargetRate: 4000, Sustained: false},
	}
	if got := maxSustained(rows); got != 2000 {
		t.Fatalf("maxSustained = %v, want 2000", got)
	}
	if got := maxSustained(nil); got != 0 {
		t.Fatalf("maxSustained(nil) = %v, want 0", got)
	}
	if got := maxSustained([]CapacityRow{{TargetRate: 100, Sustained: false}}); got != 0 {
		t.Fatalf("maxSustained all-failed = %v, want 0", got)
	}
}

// TestReduceRowsKeepsMedianRepetition: a rate is sustained only when
// most of its repetitions met the SLO. The JSON rows are the three
// repetitions of the 8000 r/s step of a 3-repetition bench-loadgen run
// (p99 69, 37 and 131 ms against the 50 ms SLO), which the minimum
// called sustained. Of two repetitions the upper median stands, so both
// must meet the SLO.
func TestReduceRowsKeepsMedianRepetition(t *testing.T) {
	const slo, ms = 50 * time.Millisecond, time.Millisecond
	row := func(codec string, p99 time.Duration) CapacityRow {
		return CapacityRow{Codec: codec, TargetRate: 8000, AchievedRate: 7990, P99Ns: p99.Nanoseconds(), Sustained: p99 <= slo}
	}
	rows := []CapacityRow{
		row("json", 69*ms), row("binary", 30*ms),
		row("json", 37*ms), row("binary", 60*ms),
		row("json", 131*ms),
	}
	want := []CapacityRow{row("json", 69*ms), row("binary", 60*ms)}
	if got := reduceRows(rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("reduceRows kept %+v, want %+v", got, want)
	}
	if got := maxSustained(reduceRows(rows)); got != 0 {
		t.Fatalf("max sustained %v r/s, want none: most repetitions missed the SLO", got)
	}
	if got := reduceRows(rows[:1]); !reflect.DeepEqual(got, rows[:1]) {
		t.Fatalf("one repetition reduced to %+v, want it unchanged", got)
	}
}

// TestGitCommitMarksDirtyTree: the recorded commit is the bare hash of
// a clean tree and carries "-dirty" once a tracked file is edited.
func TestGitCommitMarksDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git on PATH")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=loadgen", "-c", "user.email=loadgen@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	file := filepath.Join(dir, "tracked.txt")
	if err := os.WriteFile(file, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("init", "-q")
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "one")
	head := git("rev-parse", "HEAD")
	if got := gitCommit(dir); got != head {
		t.Fatalf("clean tree recorded as %q, want %q", got, head)
	}
	if err := os.WriteFile(file, []byte("two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := gitCommit(dir); got != head+"-dirty" {
		t.Fatalf("edited tree recorded as %q, want %q", got, head+"-dirty")
	}
}

func TestVerifyCounts(t *testing.T) {
	if v := verifyCounts(100, 100); !v.OK || v.Lost != 0 || v.Duplicated != 0 {
		t.Fatalf("exact match: %+v", v)
	}
	if v := verifyCounts(100, 97); v.OK || v.Lost != 3 || v.Duplicated != 0 {
		t.Fatalf("lost posts: %+v", v)
	}
	if v := verifyCounts(100, 104); v.OK || v.Lost != 0 || v.Duplicated != 4 {
		t.Fatalf("duplicated posts: %+v", v)
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates(" 1000, 2000,4000 ")
	if err != nil || !reflect.DeepEqual(got, []float64{1000, 2000, 4000}) {
		t.Fatalf("parseRates = %v, %v", got, err)
	}
	if got, err := parseRates(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"x", "1000,-5", "1000,,2000", "0"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := func() *config {
		return &config{Players: 100, M: 64, PostBatch: 16}
	}
	if err := good().validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	c := good()
	c.Players = 0
	if err := c.validate(); err == nil {
		t.Error("players=0 accepted")
	}
	c = good()
	c.PostBatch = 10 // does not divide 64: breaks exact probe accounting
	if err := c.validate(); err == nil {
		t.Error("non-dividing post-batch accepted")
	}
	c = good()
	c.PostBatch = 128 // larger than the universe
	if err := c.validate(); err == nil {
		t.Error("post-batch > m accepted")
	}
	c = good()
	c.Rates = []float64{1000, -1}
	if err := c.validate(); err == nil {
		t.Error("negative rate accepted")
	}
}
