// Command msjoin evaluates a natural join over relations stored in plain
// text files, using any of the library's engines.
//
// Each relation file has a header line naming the relation and its
// variables, followed by one tuple of non-negative integers per line:
//
//	R: A B
//	1 2
//	2 3
//
// The query is the natural join of all given files. Example:
//
//	msjoin -engine minesweeper -stats r.rel s.rel t.rel
//	msjoin -gao A,B,C r.rel s.rel
//	msjoin -limit 10 -timeout 2s r.rel s.rel
//	msjoin -select 'A, count(*)' -where 'B < 100' r.rel s.rel
//
// Results stream as the engine discovers them: -limit stops after k
// tuples (the anytime behaviour of probe-driven evaluation; ≤ 0 means
// no limit) and -timeout aborts the run at the deadline, printing
// whatever streamed out before it.
//
// -select projects the output onto the listed variables (set semantics)
// and/or computes grouped aggregates: count(*), count(distinct X),
// sum(X), min(X), max(X). -where conjoins per-variable range filters
// ("A < 10 and B >= 3"), pushed down into the engines' index walks.
//
// -explain prints the plan — the chosen GAO (data-aware unless -gao
// forces one), its elimination width, the cost model's estimate and any
// dictionary-encoded attributes — without evaluating the join.
//
// Lines starting with '#' and blank lines are ignored.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"minesweeper"
	"minesweeper/internal/relio"
)

func main() {
	engineFlag := flag.String("engine", "auto", "auto, minesweeper, leapfrog, nprr, yannakakis, hashplan")
	gaoFlag := flag.String("gao", "", "comma-separated global attribute order (default: recommended)")
	statsFlag := flag.Bool("stats", false, "print run statistics")
	quiet := flag.Bool("quiet", false, "suppress tuple output (count only)")
	limitFlag := flag.Int("limit", 0, "stop after this many output tuples (<= 0 = no limit)")
	timeoutFlag := flag.Duration("timeout", 0, "abort evaluation after this duration (0 = none)")
	selectFlag := flag.String("select", "", "projection/aggregate list, e.g. 'A, count(*), sum(B)'")
	whereFlag := flag.String("where", "", "range filters, e.g. 'A < 10 and B >= 3'")
	domainFlag := flag.String("domain", "natural", "dictionary domain ordering: natural (order-preserving rank codes) or freq (frequency-permuted codes on skewed attributes)")
	explainFlag := flag.Bool("explain", false, "print the chosen plan (GAO, width, estimated cost, suffix cut, dictionary attributes and their domain orders) without evaluating")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "msjoin: no relation files given")
		flag.Usage()
		os.Exit(2)
	}
	engine, err := minesweeper.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msjoin: unknown engine %q\n", *engineFlag)
		os.Exit(2)
	}

	var atoms []minesweeper.Atom
	for _, path := range flag.Args() {
		atom, err := loadRelation(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
			os.Exit(1)
		}
		atoms = append(atoms, atom)
	}
	q, err := minesweeper.NewQuery(atoms...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
		os.Exit(1)
	}
	opts := &minesweeper.Options{Engine: engine}
	if *gaoFlag != "" {
		opts.GAO = strings.Split(*gaoFlag, ",")
	}
	domain, err := minesweeper.ParseDomainOrder(*domainFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
		os.Exit(2)
	}
	opts.Domain = domain
	if *selectFlag != "" {
		sel, aggs, err := minesweeper.ParseSelect(*selectFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
			os.Exit(2)
		}
		opts.Select = sel
		opts.Aggregates = aggs
	}
	if *whereFlag != "" {
		where, err := minesweeper.ParseWhere(*whereFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
			os.Exit(2)
		}
		opts.Where = where
	}
	pq, err := q.Prepare(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
		os.Exit(1)
	}
	if *explainFlag {
		fmt.Println(formatExplain(pq.Explain()))
		return
	}
	ctx := context.Background()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	fmt.Printf("-- vars: %s\n", strings.Join(pq.OutputVars(), " "))
	w := bufio.NewWriter(os.Stdout)
	count := 0
	stats, err := pq.StreamContext(ctx, func(tup []int) bool {
		count++
		if !*quiet {
			for i, v := range tup {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, v)
			}
			fmt.Fprintln(w)
		}
		return *limitFlag <= 0 || count < *limitFlag
	})
	w.Flush()
	timedOut := errors.Is(err, context.DeadlineExceeded)
	if err != nil && !timedOut {
		fmt.Fprintf(os.Stderr, "msjoin: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("-- %d tuples (engine=%s, gao=%s", count, *engineFlag, strings.Join(pq.GAO(), ","))
	if q.IsBetaAcyclic() {
		fmt.Printf(", β-acyclic")
	} else if q.IsAlphaAcyclic() {
		fmt.Printf(", α-acyclic")
	} else {
		fmt.Printf(", cyclic")
	}
	if *limitFlag > 0 && count >= *limitFlag {
		fmt.Printf(", limit reached")
	}
	if timedOut {
		fmt.Printf(", TIMED OUT after %v", *timeoutFlag)
	}
	fmt.Println(")")
	if *statsFlag {
		fmt.Printf("-- stats: %s\n", stats.String())
		fmt.Printf("-- certificate estimate |C| ≈ %d FindGap ops\n", stats.CertificateEstimate())
	}
	if timedOut {
		os.Exit(3)
	}
}

// formatExplain renders the -explain line: the chosen GAO, its
// elimination width, the planner's cost estimate, whether the data
// overrode the structural order, the engine, Minesweeper's
// product-suffix cut (the GAO index it walks outputs from), any
// dictionary-encoded
// attributes, and the domain ordering each encoded attribute's code
// space follows (attr:rank or attr:freq) — without the last part a
// stream consumer cannot tell whether the emission order and code-space
// bounds mirror raw value order.
func formatExplain(ex minesweeper.Explain) string {
	line := fmt.Sprintf("-- explain: gao=%s width=%d cost=%.4g planned=%v engine=%s suffix_from=%d",
		strings.Join(ex.GAO, ","), ex.Width, ex.EstCost, ex.Planned, ex.Engine, ex.SuffixFrom)
	if len(ex.DictAttrs) > 0 {
		line += " dict=" + strings.Join(ex.DictAttrs, ",")
	}
	if len(ex.DictOrders) > 0 {
		line += " dictorder=" + strings.Join(ex.DictOrders, ",")
	}
	return line
}

// loadRelation parses "Name: V1 V2 ..." plus integer tuple rows.
func loadRelation(path string) (minesweeper.Atom, error) {
	f, err := os.Open(path)
	if err != nil {
		return minesweeper.Atom{}, err
	}
	defer f.Close()
	parsed, err := relio.ReadRelation(f, path)
	if err != nil {
		return minesweeper.Atom{}, err
	}
	rel, err := minesweeper.NewRelation(parsed.Name, len(parsed.Vars), parsed.Tuples)
	if err != nil {
		return minesweeper.Atom{}, err
	}
	return minesweeper.Atom{Rel: rel, Vars: parsed.Vars}, nil
}
