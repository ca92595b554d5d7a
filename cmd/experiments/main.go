// Command experiments regenerates the reproduction tables E1–E20 (see
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for a
// recorded reference run).
//
// Examples:
//
//	experiments                  # run everything at reference scale
//	experiments -run E4,E6       # selected experiments
//	experiments -scale 1 -seeds 1 -quick   # fast smoke pass
//	experiments -format markdown # emit markdown tables
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tellme/internal/core"
	"tellme/internal/exp"
	"tellme/internal/metrics"
	"tellme/internal/probe"
	"tellme/internal/telemetry"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment IDs (empty = all)")
		seeds   = flag.Int("seeds", 3, "repetitions per configuration")
		scale   = flag.Int("scale", 2, "instance size scale (1 = quick, 2 = reference)")
		format  = flag.String("format", "text", "output format: text|csv|markdown")
		quick   = flag.Bool("quick", false, "shorthand for -seeds 1 -scale 1")
		quiet   = flag.Bool("q", false, "suppress progress lines")
		outDir  = flag.String("out", "", "also write each table as CSV into this directory")
		withTel = flag.Bool("telemetry", false, "collect runtime telemetry and print a per-experiment cost breakdown")
		tmo     = flag.Duration("timeout", 0, "per-experiment wall-clock budget; a timed-out experiment is skipped (0 = no limit)")
	)
	flag.Parse()
	if *quick {
		*seeds, *scale = 1, 1
	}

	opts := exp.Options{Seeds: *seeds, Scale: *scale}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	emit := func(t *metrics.Table) error {
		switch *format {
		case "text":
			return t.Render(os.Stdout)
		case "csv":
			return t.CSV(os.Stdout)
		case "markdown":
			return t.Markdown(os.Stdout)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	exitCode := 0
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "--- %s: %s (%s)\n", e.ID, e.Title, e.Claim)
		if *withTel {
			opts.Telemetry = telemetry.New()
		}
		tables, err := runExperiment(e, opts, *tmo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s aborted: %v\n", e.ID, err)
			exitCode = 1
			continue
		}
		for i, t := range tables {
			if err := emit(t); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Println()
			if *outDir != "" {
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				if err := writeCSV(filepath.Join(*outDir, name), t); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					os.Exit(1)
				}
			}
		}
		if *withTel {
			if t := costBreakdown(e.ID, opts.Telemetry); t != nil {
				if err := emit(t); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					os.Exit(1)
				}
				fmt.Println()
			}
			if t := tallyBreakdown(e.ID, opts.Telemetry); t != nil {
				if err := emit(t); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
					os.Exit(1)
				}
				fmt.Println()
			}
		}
	}
	os.Exit(exitCode)
}

// runExperiment executes one experiment under an optional wall-clock
// budget. A cancelled context surfaces from player code as a
// *core.Abort or *probe.Canceled panic; recover it here so one
// timed-out experiment does not kill the rest of the sweep. Any other
// panic is a real bug and is re-raised.
func runExperiment(e exp.Experiment, opts exp.Options, timeout time.Duration) (tables []*metrics.Table, err error) {
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		opts.Context = ctx
	}
	defer func() {
		rec := recover()
		switch v := rec.(type) {
		case nil:
		case *core.Abort:
			tables, err = nil, v
		case *probe.Canceled:
			tables, err = nil, v
		default:
			panic(rec)
		}
	}()
	return e.Run(opts), nil
}

// costBreakdown turns the "core.<kind>.{calls,probes,ns}" span counters
// accumulated across one experiment's sessions into a per-sub-algorithm
// cost table (nil when the experiment never entered an instrumented
// span).
func costBreakdown(id string, reg *telemetry.Registry) *metrics.Table {
	snap := reg.Snapshot()
	kinds := map[string]bool{}
	for name := range snap.Counters {
		if rest, ok := strings.CutPrefix(name, "core."); ok {
			if kind, ok := strings.CutSuffix(rest, ".calls"); ok {
				kinds[kind] = true
			}
		}
	}
	if len(kinds) == 0 {
		return nil
	}
	sorted := make([]string, 0, len(kinds))
	for k := range kinds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	t := &metrics.Table{
		Title:  fmt.Sprintf("%s cost breakdown (all seeds and configurations)", id),
		Note:   "per sub-algorithm: invocations, probes charged inside the span, wall time",
		Header: []string{"sub-algorithm", "calls", "probes", "probes/call", "wall", "wall/call"},
	}
	for _, kind := range sorted {
		calls := snap.Counters["core."+kind+".calls"]
		probes := snap.Counters["core."+kind+".probes"]
		ns := snap.Counters["core."+kind+".ns"]
		if calls == 0 {
			continue
		}
		t.AddRow(kind, calls, probes,
			fmt.Sprintf("%.1f", float64(probes)/float64(calls)),
			time.Duration(ns).Round(time.Microsecond),
			time.Duration(ns/calls).Round(time.Microsecond))
	}
	return t
}

// tallyBreakdown summarizes the billboard's vote tallies for one
// experiment: their count and total and mean wall time (nil when the
// board tallied nothing).
func tallyBreakdown(id string, reg *telemetry.Registry) *metrics.Table {
	snap := reg.Snapshot()
	rebuilds := snap.Counters["billboard.tally.rebuilds"]
	if rebuilds == 0 {
		return nil
	}
	rebuildNs := snap.Counters["billboard.tally.rebuild_ns"]
	t := &metrics.Table{
		Title:  fmt.Sprintf("%s billboard tallies (all seeds and configurations)", id),
		Note:   "vote tallies computed and their wall time",
		Header: []string{"tallies", "tally wall", "wall/tally"},
	}
	t.AddRow(rebuilds,
		time.Duration(rebuildNs).Round(time.Microsecond),
		time.Duration(rebuildNs/rebuilds).Round(time.Microsecond))
	return t
}

// selectExperiments resolves a comma-separated ID list ("" = all).
func selectExperiments(run string) ([]exp.Experiment, error) {
	if run == "" {
		return exp.All(), nil
	}
	var selected []exp.Experiment
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		e, ok := exp.ByID(id)
		if !ok {
			avail := make([]string, 0, len(exp.All()))
			for _, e := range exp.All() {
				avail = append(avail, e.ID)
			}
			return nil, fmt.Errorf("unknown experiment %q; available: %s", id, strings.Join(avail, " "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

func writeCSV(path string, t *metrics.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
