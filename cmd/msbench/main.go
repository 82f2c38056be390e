// Command msbench runs the repo's workload registry (internal/esuite).
//
// Every table/figure of "Beyond Worst-case Analysis for Joins with
// Minesweeper" (PODS 2014), one measured experiment per quantitative
// theorem and the system workloads added since are available by key;
// an unknown key lists them all:
//
//	msbench -exp fig2        # Figure 2: N vs |C| on star/3-path/tree
//	msbench -exp appj        # Appendix J: Minesweeper vs WCOJ baselines
//	msbench -exp all         # everything
//	msbench -exp all -scale small   # quick pass
//
// Output is a plain-text table per experiment, with the claim it
// reproduces quoted underneath. One more table is the repo's regression
// gate on certificate work — the exact counters of every sequential
// case, which go test compares byte-for-byte with the committed golden:
//
//	msbench -exp counters -scale small > internal/esuite/testdata/counters.golden
//
// It also measures the tracked cases and records them as a
// machine-readable artifact, the repo's benchmark trajectory:
//
//	msbench -json BENCH_1.json -label optimized   # measure + record
//	msbench -json BENCH_1.json -bench 'CDS'       # subset by substring
//	msbench -compare BENCH_0.json,BENCH_1.json    # diff two artifacts (report only)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"minesweeper/internal/esuite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment key, 'all', or 'counters' (the exact-counter gate table); an unknown key lists the registry")
	scaleFlag := fs.String("scale", "full", "full or small")
	jsonOut := fs.String("json", "", "measure the tracked cases and write BENCH_<n>.json to this path instead of the experiment tables")
	label := fs.String("label", "", "label stored in the -json artifact (e.g. baseline, optimized)")
	benchFilter := fs.String("bench", "", "with -json: only run tracked cases whose name contains one of these comma-separated substrings")
	compare := fs.String("compare", "", "compare two BENCH_*.json files: old.json,new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare != "" {
		return runCompare(*compare, stdout, stderr)
	}
	if *jsonOut != "" {
		return runJSON(*jsonOut, *label, *benchFilter, stderr)
	}

	scale := esuite.Full
	switch *scaleFlag {
	case "full":
	case "small":
		scale = esuite.Small
	default:
		fmt.Fprintf(stderr, "msbench: unknown scale %q (want full or small)\n", *scaleFlag)
		return 2
	}

	selected := esuite.Experiments()
	if *exp != "all" && *exp != "counters" {
		e := esuite.Find(*exp)
		if e == nil {
			fmt.Fprintf(stderr, "msbench: unknown experiment %q; available:\n  %-12s %s\n", *exp, "counters", "exact work counters of every sequential case (the go test gate)")
			for _, e := range selected {
				fmt.Fprintf(stderr, "  %-12s %s: %s\n", e.Key, e.ID, e.Title)
			}
			return 2
		}
		selected = []*esuite.Experiment{e}
	}

	var all []esuite.Row
	for _, e := range selected {
		rows, err := e.Run(scale)
		if err == nil && *exp != "counters" {
			err = esuite.WriteTable(stdout, e, rows)
		}
		if err != nil {
			fmt.Fprintf(stderr, "msbench: %s: %v\n", e.Key, err)
			return 1
		}
		all = append(all, rows...)
	}
	if *exp == "counters" {
		if err := esuite.WriteCounters(stdout, all); err != nil {
			fmt.Fprintf(stderr, "msbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runJSON measures the tracked cases and writes the JSON artifact.
func runJSON(path, label, filter string, stderr io.Writer) int {
	var pred func(*esuite.Case) bool
	if filter != "" {
		subs := strings.Split(filter, ",")
		pred = func(c *esuite.Case) bool {
			for _, s := range subs {
				if s = strings.TrimSpace(s); s != "" && strings.Contains(c.Name, s) {
					return true
				}
			}
			return false
		}
	}
	results := esuite.RunTracked(pred, stderr)
	if len(results) == 0 {
		fmt.Fprintf(stderr, "msbench: no tracked case matches -bench %q\n", filter)
		return 2
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "msbench: %v\n", err)
		return 1
	}
	err = esuite.WriteJSON(f, label, results)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "msbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d benchmarks to %s\n", len(results), path)
	return 0
}

// runCompare prints the per-benchmark deltas of two artifacts. It only
// reports: same-commit ns/op noise on shared runners is 15–25%, so the
// gate is the exact-counter golden, not a time threshold.
func runCompare(spec string, stdout, stderr io.Writer) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(stderr, "msbench: -compare wants old.json,new.json")
		return 2
	}
	files := make([]*esuite.File, 2)
	for i, p := range parts {
		fh, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(stderr, "msbench: %v\n", err)
			return 1
		}
		files[i], err = esuite.ReadJSON(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(stderr, "msbench: %s: %v\n", p, err)
			return 1
		}
	}
	deltas := esuite.Compare(files[0], files[1])
	if len(deltas) == 0 {
		fmt.Fprintln(stderr, "msbench: no common benchmarks")
		return 1
	}
	fmt.Fprintf(stdout, "%-32s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ns Δ", "old allocs", "new allocs", "allocs Δ")
	for _, d := range deltas {
		fmt.Fprintf(stdout, "%-32s %14.0f %14.0f %7.0f%% %12.1f %12.1f %7.0f%%\n",
			d.Name, d.OldNs, d.NewNs, (d.NsRatio()-1)*100,
			d.OldAllocs, d.NewAllocs, (d.AllocsRatio()-1)*100)
	}
	return 0
}
