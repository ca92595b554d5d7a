// Command benchdiff runs the repository's experiment benchmarks and
// records a perf-trajectory snapshot as JSON, so successive PRs can
// compare ns/op and allocs/op against earlier baselines.
//
// Usage:
//
//	go run ./cmd/benchdiff                         # run and write BENCH_1.json
//	go run ./cmd/benchdiff -bench 'E1|E8' -count 3
//	go run ./cmd/benchdiff -input old.txt          # parse a saved `go test -bench` log
//	go run ./cmd/benchdiff -baseline BENCH_0.json  # embed a before/after comparison
//
// Each benchmark is summarized by its minimum ns/op over the repeated
// runs (minimum is the standard low-noise estimator for wall time) and
// the per-op bytes and allocation counts, which Go reports
// deterministically.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Summary is one benchmark's aggregate over all -count runs.
type Summary struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsPerOp  float64 `json:"ns_per_op"`      // minimum over runs
	MeanNs   float64 `json:"ns_per_op_mean"` // mean over runs
	BytesOp  int64   `json:"bytes_per_op"`   // minimum over runs
	AllocsOp int64   `json:"allocs_per_op"`  // minimum over runs
	// Extra holds custom b.ReportMetric units (e.g. "requests/op" from
	// the netboard suite), each the minimum over runs.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// suites are named benchmark presets: -suite <name> fills in the
// package, regexp, and output path so trajectory files stay comparable
// across PRs.
var suites = map[string]struct {
	pkg, bench, out string
}{
	// The experiment benchmarks of the root package (the default).
	"experiments": {pkg: ".", bench: ".", out: "BENCH_1.json"},
	// The networked-billboard throughput suite: full Zero Radius runs
	// over HTTP, reporting requests/op.
	"netboard": {pkg: "./internal/netboard", bench: "NetboardRun|HTTP", out: "BENCH_2.json"},
	// The core-engine suite: E1/E8 end to end plus the billboard tally
	// microbenchmarks behind them. Run with -baseline BENCH_4.json to
	// track the bit-plane/arena rewrite; `make bench-core` adds
	// -fail-regress 10 so a >10% E1/E8 slowdown fails the build.
	"core": {pkg: ".,./internal/billboard", bench: "E1ZeroRadius|E8Main|VotesLargeTopic|PopularVectors|PostValues", out: "BENCH_5.json"},
	// The wire-codec suite: encode/decode microbenchmarks of the two hot
	// message shapes (topic snapshot, probe batch) under the JSON and
	// binary codecs, with allocs/op from the pooled-buffer path. `make
	// bench-wire` runs it as the CI smoke.
	"wire": {pkg: "./internal/netboard", bench: "WireEncode|WireDecode", out: "BENCH_WIRE.json"},
}

// Comparison is the per-benchmark before/after delta when -baseline is
// given.
type Comparison struct {
	Name         string  `json:"name"`
	BaseNsPerOp  float64 `json:"base_ns_per_op"`
	NsPerOp      float64 `json:"ns_per_op"`
	Speedup      float64 `json:"speedup"` // base / current, >1 is faster
	BaseAllocsOp int64   `json:"base_allocs_per_op"`
	AllocsOp     int64   `json:"allocs_per_op"`
}

// File is the BENCH_N.json schema.
type File struct {
	Command string `json:"command"`
	Go      string `json:"go"`
	// Commit is the HEAD commit the benchmarks ran on (best-effort), so
	// a later PR can re-run this snapshot's code with -ref instead of
	// trusting wall-clock numbers recorded on a different machine state.
	Commit string `json:"commit,omitempty"`
	// RefCommit is set when -ref was used: the baseline summaries were
	// measured from this commit in the same wall-clock window as the
	// current ones (alternating runs), so their ns/op ratio is valid
	// even on a machine whose speed drifts between sessions.
	RefCommit  string       `json:"ref_commit,omitempty"`
	Benchmarks []Summary    `json:"benchmarks"`
	Baseline   []Summary    `json:"baseline,omitempty"`
	Comparison []Comparison `json:"comparison,omitempty"`
}

func main() {
	var (
		bench    = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		count    = flag.Int("count", 5, "repetitions per benchmark (go test -count)")
		btime    = flag.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime); empty keeps go's default")
		pkg      = flag.String("pkg", ".", "package to benchmark")
		out      = flag.String("out", "BENCH_1.json", "output JSON path")
		suite    = flag.String("suite", "", "named preset (experiments, netboard); sets -pkg/-bench/-out unless overridden")
		input    = flag.String("input", "", "parse this saved benchmark log instead of running go test")
		baseline = flag.String("baseline", "", "prior benchdiff JSON or raw benchmark log to compare against")
		inter    = flag.Bool("interleave", false, "run go test -count times with -count=1 instead of once with -count=N: each benchmark's samples then spread across the whole wall-clock window, so slow machine drift hits every benchmark equally (use when benchmarks are compared against each other, as in the core suite)")
		failPct  = flag.Float64("fail-regress", 0, "exit nonzero when any benchmark present in the baseline is more than this percent slower (ns/op) than the baseline; 0 disables the gate")
		failRe   = flag.String("fail-bench", "", "restrict the -fail-regress gate to benchmarks matching this regexp; wall-clock numbers in a saved baseline were recorded under that machine's speed, so gate only the benchmarks whose budget has headroom for drift (or use -ref, which is drift-immune)")
		ref      = flag.String("ref", "", "git rev to benchmark as the baseline in the same wall-clock window: the rev is checked out into a temporary worktree and its runs alternate with the current tree's, so the comparison (and -fail-regress) is immune to machine-speed drift; implies -interleave and overrides -baseline")
	)
	flag.Parse()
	if *suite != "" {
		preset, ok := suites[*suite]
		if !ok {
			fatal(fmt.Errorf("unknown suite %q (have: experiments, netboard, core, wire)", *suite))
		}
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["pkg"] {
			*pkg = preset.pkg
		}
		if !set["bench"] {
			*bench = preset.bench
		}
		if !set["out"] {
			*out = preset.out
		}
	}

	benchtime = *btime
	cmdline := fmt.Sprintf("go test -run ^$ -bench %s -benchmem -count=%d %s", *bench, *count, *pkg)
	var sums, baseSums []Summary
	var err error
	refCommit := ""
	switch {
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		sums, err = parseBench(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cmdline = "parsed from " + *input
	case *ref != "":
		sums, baseSums, refCommit = runAB(*bench, *count, *pkg, *ref)
		cmdline = fmt.Sprintf("%d x go test -run ^$ -bench %s -benchmem -count=1 %s (interleaved A/B vs %s)",
			*count, *bench, *pkg, *ref)
	case *inter:
		var all strings.Builder
		for i := 0; i < *count; i++ {
			out, err := runGoTest("", *bench, 1, *pkg)
			if err != nil {
				fatal(err)
			}
			all.WriteString(out)
		}
		sums, err = parseBench(strings.NewReader(all.String()))
		if err != nil {
			fatal(err)
		}
		cmdline = fmt.Sprintf("%d x go test -run ^$ -bench %s -benchmem -count=1 %s (interleaved)", *count, *bench, *pkg)
	default:
		out, err := runGoTest("", *bench, *count, *pkg)
		if err != nil {
			fatal(err)
		}
		sums, err = parseBench(strings.NewReader(out))
		if err != nil {
			fatal(err)
		}
	}
	if baseSums == nil && *baseline != "" {
		baseSums, err = loadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
	}

	comps := write(*out, cmdline, refCommit, sums, baseSums)
	if *failPct > 0 {
		gate := regexp.MustCompile(*failRe) // "" matches everything
		failed := false
		for _, c := range comps {
			if !gate.MatchString(c.Name) {
				continue
			}
			if c.BaseNsPerOp > 0 && c.NsPerOp > c.BaseNsPerOp*(1+*failPct/100) {
				fmt.Fprintf(os.Stderr, "REGRESSION: %s %.0f -> %.0f ns/op (more than %.0f%% slower than baseline)\n",
					c.Name, c.BaseNsPerOp, c.NsPerOp, *failPct)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// runAB benchmarks the working tree against a git rev in the same
// wall-clock window: the rev is checked out into a temporary worktree
// and single-count runs of the two trees alternate, so machine-speed
// drift during (or before) the session biases both sides equally. The
// returned baseline summaries come from the rev's code, freshly
// measured — never from numbers recorded on an earlier machine state.
func runAB(bench string, count int, pkgs, ref string) (cur, base []Summary, refCommit string) {
	dir, err := os.MkdirTemp("", "benchdiff-ref-")
	if err != nil {
		fatal(err)
	}
	cleanup := func() {
		exec.Command("git", "worktree", "remove", "--force", dir).Run()
		os.RemoveAll(dir)
	}
	fail := func(err error) {
		cleanup()
		fatal(err)
	}
	if out, err := exec.Command("git", "worktree", "add", "--detach", dir, ref).CombinedOutput(); err != nil {
		fail(fmt.Errorf("git worktree add %s: %v\n%s", ref, err, out))
	}
	defer cleanup()
	if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
		refCommit = strings.TrimSpace(string(out))
	}
	var curBuf, refBuf strings.Builder
	for i := 0; i < count; i++ {
		out, err := runGoTest(dir, bench, 1, pkgs)
		if err != nil {
			fail(err)
		}
		refBuf.WriteString(out)
		if out, err = runGoTest("", bench, 1, pkgs); err != nil {
			fail(err)
		}
		curBuf.WriteString(out)
	}
	if cur, err = parseBench(strings.NewReader(curBuf.String())); err != nil {
		fail(err)
	}
	if base, err = parseBench(strings.NewReader(refBuf.String())); err != nil {
		fail(err)
	}
	return cur, base, refCommit
}

// benchtime is the -benchtime value passed through to every go test
// invocation ("" keeps go's default).
var benchtime string

// runGoTest executes one `go test -bench` invocation per comma-separated
// package in dir ("" = current directory) and returns the concatenated
// stdout (benchmark lines).
func runGoTest(dir, bench string, count int, pkgs string) (string, error) {
	var all strings.Builder
	for _, pkg := range strings.Split(pkgs, ",") {
		args := []string{"test", "-run", "^$", "-bench", bench,
			"-benchmem", fmt.Sprintf("-count=%d", count)}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		cmd := exec.Command("go", append(args, pkg)...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprint(os.Stderr, string(out))
			return "", fmt.Errorf("go test %s: %w", pkg, err)
		}
		all.Write(out)
	}
	return all.String(), nil
}

func write(path, cmdline, refCommit string, sums, base []Summary) []Comparison {
	f := File{Command: cmdline, Go: goVersion(), Commit: headCommit(), RefCommit: refCommit, Benchmarks: sums}
	if base != nil {
		f.Baseline = base
		f.Comparison = compare(base, sums)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	for _, s := range sums {
		fmt.Printf("%-40s %12.0f ns/op %10d B/op %8d allocs/op  (%d runs)\n",
			s.Name, s.NsPerOp, s.BytesOp, s.AllocsOp, s.Runs)
		units := make([]string, 0, len(s.Extra))
		for u := range s.Extra {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Printf("%-40s %12.1f %s\n", "", s.Extra[u], u)
		}
	}
	for _, c := range f.Comparison {
		fmt.Printf("%-40s %6.2fx ns/op  allocs %d -> %d\n",
			c.Name, c.Speedup, c.BaseAllocsOp, c.AllocsOp)
	}
	fmt.Printf("wrote %s\n", path)
	return f.Comparison
}

// parseBench reads `go test -bench -benchmem` output lines of the form
//
//	BenchmarkName-8   123   456789 ns/op   1024 B/op   17 allocs/op
//
// and aggregates repeated runs of the same benchmark.
func parseBench(r io.Reader) ([]Summary, error) {
	type acc struct {
		runs    int
		minNs   float64
		sumNs   float64
		bytes   int64
		allocs  int64
		extra   map[string]float64
		hasMem  bool
		hasInit bool
	}
	byName := map[string]*acc{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.SplitN(fields[0], "-", 2)[0] // strip -GOMAXPROCS suffix
		var ns float64
		var bytesOp, allocsOp int64 = -1, -1
		var extra map[string]float64
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
				}
				ns = v
			case "B/op":
				bytesOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				allocsOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				// A custom b.ReportMetric unit, e.g. "requests/op".
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					if extra == nil {
						extra = map[string]float64{}
					}
					extra[unit] = v
				}
			}
		}
		a, ok := byName[name]
		if !ok {
			a = &acc{}
			byName[name] = a
			order = append(order, name)
		}
		a.runs++
		a.sumNs += ns
		if !a.hasInit || ns < a.minNs {
			a.minNs = ns
			a.hasInit = true
		}
		if bytesOp >= 0 && (!a.hasMem || bytesOp < a.bytes) {
			a.bytes = bytesOp
		}
		if allocsOp >= 0 && (!a.hasMem || allocsOp < a.allocs) {
			a.allocs = allocsOp
		}
		if bytesOp >= 0 || allocsOp >= 0 {
			a.hasMem = true
		}
		for unit, v := range extra {
			if a.extra == nil {
				a.extra = map[string]float64{}
			}
			if old, ok := a.extra[unit]; !ok || v < old {
				a.extra[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	out := make([]Summary, 0, len(order))
	for _, name := range order {
		a := byName[name]
		out = append(out, Summary{
			Name:     name,
			Runs:     a.runs,
			NsPerOp:  a.minNs,
			MeanNs:   a.sumNs / float64(a.runs),
			BytesOp:  a.bytes,
			AllocsOp: a.allocs,
			Extra:    a.extra,
		})
	}
	return out, nil
}

// loadBaseline accepts either a prior benchdiff JSON file or a raw
// `go test -bench` log.
func loadBaseline(path string) ([]Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if json.Valid(data) {
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, err
		}
		return f.Benchmarks, nil
	}
	return parseBench(strings.NewReader(string(data)))
}

func compare(base, cur []Summary) []Comparison {
	byName := map[string]Summary{}
	for _, b := range base {
		byName[b.Name] = b
	}
	var out []Comparison
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok || c.NsPerOp == 0 {
			continue
		}
		out = append(out, Comparison{
			Name:         c.Name,
			BaseNsPerOp:  b.NsPerOp,
			NsPerOp:      c.NsPerOp,
			Speedup:      b.NsPerOp / c.NsPerOp,
			BaseAllocsOp: b.AllocsOp,
			AllocsOp:     c.AllocsOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	// A dirty tree means the numbers reflect code beyond the commit;
	// say so rather than record a misleadingly precise provenance.
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
