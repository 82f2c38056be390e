package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	minesweeper "minesweeper"
	"minesweeper/internal/dataset"
)

// The sharding acceptance suite: sharded execution must be
// indistinguishable from unsharded execution — byte-for-byte identical
// NDJSON streams — across shard counts, routing modes, engines and query
// shapes, including after mutations retarget a prepared plan.

var allEngines = []minesweeper.Engine{
	minesweeper.EngineMinesweeper,
	minesweeper.EngineLeapfrog,
	minesweeper.EngineNPRR,
	minesweeper.EngineYannakakis,
	minesweeper.EngineHashPlan,
}

// relSpec declares one catalog relation of a fixture.
type relSpec struct {
	name   string
	vars   []string
	tuples [][]int
}

// fixture is one dataset + a set of query shapes over it. The queries
// deliberately walk the shape grammar: bare joins, projections, range
// filters, grouped aggregates and distinct counts all ride the same
// sliced path (shaping happens once, on the run's ordered stream).
type fixture struct {
	name    string
	rels    []relSpec
	queries []string
	acyclic bool // false skips EngineYannakakis (α-acyclic only)
}

func fixtures() []fixture {
	g := dataset.PowerLawGraph(160, 3, false, 7)
	e12e, e12f := dataset.SparseSkewJoin(300, 16, 97)
	e13r, e13s := dataset.ClusteredOverlapJoin(4, 32, 8)
	tr, ts, tt := dataset.TriangleHard(5)
	return []fixture{
		{
			name: "e1-graph",
			rels: []relSpec{{"E", []string{"src", "dst"}, g.Edges}},
			queries: []string{
				"E(A,B), E(B,C)",
				"E(A,B), E(B,C) select A, C where A < 40",
				"E(A,B), E(B,C) select A, count(*), max(C)",
			},
			acyclic: true,
		},
		{
			name: "e12-sparse-skew",
			rels: []relSpec{
				{"E", []string{"a", "b"}, e12e},
				{"F", []string{"b", "c"}, e12f},
			},
			queries: []string{
				"E(A,B), F(B,C)",
				"E(A,B), F(B,C) select B, C where C >= 0",
				"E(A,B), F(B,C) select count(distinct B)",
			},
			acyclic: true,
		},
		{
			name: "e13-clustered-overlap",
			rels: []relSpec{
				{"R", []string{"x", "y"}, e13r},
				{"S", []string{"x", "y"}, e13s},
			},
			queries: []string{
				"R(X,Y), S(X,Y)",
				"R(X,Y), S(X,Y) select X",
			},
			acyclic: true,
		},
		{
			name: "triangle",
			rels: []relSpec{
				{"R", []string{"a", "b"}, tr},
				{"S", []string{"b", "c"}, ts},
				{"T", []string{"a", "c"}, tt},
			},
			queries: []string{
				"R(A,B), S(B,C), T(A,C)",
			},
			acyclic: false,
		},
	}
}

func buildSharded(t *testing.T, n int, rels []relSpec) *Catalog {
	t.Helper()
	c := New(n)
	for _, r := range rels {
		if _, err := c.Create(r.name, r.vars, r.tuples); err != nil {
			t.Fatalf("Create %s: %v", r.name, err)
		}
	}
	return c
}

// ndjson renders a result the way msserve streams it: a header line with
// the output variable order, then one JSON array per tuple in emission
// order. Comparing these strings is the byte-for-byte acceptance check.
func ndjson(t *testing.T, vars []string, tuples [][]int) string {
	t.Helper()
	var b strings.Builder
	hdr, err := json.Marshal(vars)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(hdr)
	b.WriteByte('\n')
	for _, tup := range tuples {
		line, err := json.Marshal(tup)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// reference executes the query unsharded over the catalog's whole
// relations with the same options.
func reference(t *testing.T, c *Catalog, expr string, opts *minesweeper.Options) *minesweeper.Result {
	t.Helper()
	q, err := c.Query(expr)
	if err != nil {
		t.Fatalf("reference query %q: %v", expr, err)
	}
	res, err := minesweeper.Execute(q, opts)
	if err != nil {
		t.Fatalf("reference execute %q: %v", expr, err)
	}
	return res
}

// TestScatterGatherEquivalence is the core acceptance matrix: every
// fixture × query shape × shard count × engine × worker count produces
// the exact NDJSON stream of the sequential unsharded run.
func TestScatterGatherEquivalence(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 4, 8} {
				c := buildSharded(t, n, fx.rels)
				for _, expr := range fx.queries {
					for _, eng := range allEngines {
						if eng == minesweeper.EngineYannakakis && !fx.acyclic {
							continue
						}
						ref := reference(t, c, expr, &minesweeper.Options{Engine: eng})
						want := ndjson(t, ref.Vars, ref.Tuples)
						for _, w := range []int{1, 2, 4} {
							q, err := c.Query(expr)
							if err != nil {
								t.Fatalf("query %q: %v", expr, err)
							}
							pq, err := c.Prepare(q, &minesweeper.Options{Engine: eng, Workers: w})
							if err != nil {
								t.Fatalf("prepare %q engine=%v: %v", expr, eng, err)
							}
							res, err := pq.Execute()
							if err != nil {
								t.Fatalf("execute %q engine=%v shards=%d workers=%d: %v", expr, eng, n, w, err)
							}
							if got := ndjson(t, res.Vars, res.Tuples); got != want {
								t.Fatalf("shards=%d engine=%v workers=%d query=%q: sharded stream diverges\ngot  %d tuples\nwant %d tuples",
									n, eng, w, expr, len(res.Tuples), len(ref.Tuples))
							}
						}
					}
				}
			}
		})
	}
}

// TestRoutingModeEquivalence forces both routing modes onto the
// relation leading the GAO — including splits the statistics would
// never pick — and demands the identical stream from every shard
// count: a range partition slices the run, a hash partition runs it
// gathered.
func TestRoutingModeEquivalence(t *testing.T) {
	e12e, e12f := dataset.SparseSkewJoin(300, 16, 97)
	rels := []relSpec{
		{"E", []string{"a", "b"}, e12e},
		{"F", []string{"b", "c"}, e12f},
	}
	const expr = "E(A,B), F(B,C)"
	// Pin the GAO so the slicing choice is deterministic: E's column 0
	// carries gao[0], so a forced range partition there always slices.
	opts := &minesweeper.Options{GAO: []string{"A", "B", "C"}}
	for _, n := range []int{2, 4, 8} {
		for _, mode := range []string{ModeHash, ModeRange} {
			c := buildSharded(t, n, rels)
			p := Partition{Column: 0, Attr: "a", Mode: mode}
			if mode == ModeRange {
				// Deliberately lopsided splits: correctness must not
				// depend on balance.
				for i := 1; i < n; i++ {
					p.Splits = append(p.Splits, i*13)
				}
			}
			if err := c.ForcePartition("E", p); err != nil {
				t.Fatalf("ForcePartition E %s: %v", mode, err)
			}
			ref := reference(t, c, expr, opts)
			q, err := c.Query(expr)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := c.Prepare(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := "gathered"
			if mode == ModeRange {
				want = fmt.Sprintf("E=a:range/%d", n)
			}
			if ex := pq.Explain(); len(ex.Partitions) != 1 || ex.Partitions[0] != want {
				t.Fatalf("shards=%d mode=%s: Explain.Partitions = %v, want [%s]", n, mode, ex.Partitions, want)
			}
			res, err := pq.Execute()
			if err != nil {
				t.Fatalf("shards=%d mode=%s: %v", n, mode, err)
			}
			if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
				t.Fatalf("shards=%d mode=%s: stream diverges (%d vs %d tuples)",
					n, mode, len(res.Tuples), len(ref.Tuples))
			}
			if got, _ := c.PartitionOf("E"); got.Mode != mode {
				t.Fatalf("shards=%d: forced mode did not stick: %+v", n, got)
			}
		}
	}
}

// TestPreparedAfterMutation drives one prepared query through the full
// mutation alphabet — insert, delete, replace, forced repartition, load
// — re-executing after each step against a fresh unsharded reference.
// This is the Refresh path: epoch bumps re-plan the query, and a
// repartition changes the slicing decision of the next run.
func TestPreparedAfterMutation(t *testing.T) {
	for _, n := range []int{2, 4} {
		var rT, sT [][]int
		for i := 0; i < 200; i++ {
			rT = append(rT, []int{i, (i * 7) % 120})
			sT = append(sT, []int{(i * 7) % 120, i % 40})
		}
		c := buildSharded(t, n, []relSpec{
			{"R", []string{"a", "b"}, rT},
			{"S", []string{"b", "c"}, sT},
		})
		const expr = "R(A,B), S(B,C)"
		q, err := c.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := c.Prepare(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			ref := reference(t, c, expr, nil)
			res, err := pq.Execute()
			if err != nil {
				t.Fatalf("shards=%d %s: %v", n, stage, err)
			}
			if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
				t.Fatalf("shards=%d %s: prepared stream diverges (%d vs %d tuples)",
					n, stage, len(res.Tuples), len(ref.Tuples))
			}
		}
		check("initial")

		if _, err := c.Insert("R", []int{500, 7}, []int{501, 14}); err != nil {
			t.Fatal(err)
		}
		check("after insert")

		if _, _, err := c.Delete("R", []int{0, 0}, []int{500, 7}); err != nil {
			t.Fatal(err)
		}
		check("after delete")

		if _, err := c.Replace("S", sT[:150]); err != nil {
			t.Fatal(err)
		}
		check("after replace")

		p, _ := c.PartitionOf("R")
		p.Mode = ModeHash
		p.Splits = nil
		if err := c.ForcePartition("R", p); err != nil {
			t.Fatal(err)
		}
		check("after repartition")

		var buf strings.Builder
		buf.WriteString("S: b c\n")
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&buf, "%d %d\n", (i*7)%120, i%25)
		}
		if _, err := c.Load(strings.NewReader(buf.String()), "test"); err != nil {
			t.Fatal(err)
		}
		check("after load")
	}
}

// TestLimitAndCancellation: the anytime contract survives sharding and
// workers — for every engine × shard count × worker count, a yield that
// stops early gets exactly the sequential unsharded prefix, and a
// cancelled context stops the run with the context's error without one
// more tuple.
func TestLimitAndCancellation(t *testing.T) {
	e13r, e13s := dataset.ClusteredOverlapJoin(4, 32, 8)
	const expr = "R(X,Y), S(X,Y)"
	for _, n := range []int{1, 2, 4} {
		c := buildSharded(t, n, []relSpec{
			{"R", []string{"x", "y"}, e13r},
			{"S", []string{"x", "y"}, e13s},
		})
		for _, eng := range allEngines {
			ref := reference(t, c, expr, &minesweeper.Options{Engine: eng})
			for _, w := range []int{1, 2, 4} {
				name := fmt.Sprintf("shards=%d engine=%v workers=%d", n, eng, w)
				q, err := c.Query(expr)
				if err != nil {
					t.Fatal(err)
				}
				pq, err := c.Prepare(q, &minesweeper.Options{Engine: eng, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{1, 3, len(ref.Tuples)} {
					var got [][]int
					if _, err := pq.StreamContextExplained(context.Background(), nil, func(tu []int) bool {
						got = append(got, append([]int(nil), tu...))
						return len(got) < limit
					}); err != nil {
						t.Fatalf("%s limit=%d: %v", name, limit, err)
					}
					if !reflect.DeepEqual(got, ref.Tuples[:limit]) {
						t.Fatalf("%s limit=%d: prefix diverges from the unsharded stream", name, limit)
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				seen, sawAfterCancel := 0, false
				_, err = pq.StreamContextExplained(ctx, nil, func([]int) bool {
					if ctx.Err() != nil {
						sawAfterCancel = true
					}
					seen++
					if seen == 2 {
						cancel()
					}
					return true
				})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled run returned %v, want context.Canceled", name, err)
				}
				if sawAfterCancel {
					t.Fatalf("%s: a tuple was yielded after cancellation", name)
				}
				if seen >= len(ref.Tuples) {
					t.Fatalf("%s: enumerated all %d tuples despite cancellation", name, seen)
				}
			}
		}
	}
}

// TestScatterSplitsWorkers: a workers=W run over a range partition
// starts at most W engine goroutines at any shard count — the split
// points cut the one run's morsels, they do not start runs of their own
// — and at W = 1 it starts none.
func TestScatterSplitsWorkers(t *testing.T) {
	var rT, sT [][]int
	for b := 0; b < 3000; b++ {
		for i := 0; i < 4; i++ {
			rT = append(rT, []int{(b*7919 + i*104729) % 100003, b})
			sT = append(sT, []int{b, (b*6151 + i*7907) % 100019})
		}
	}
	for _, sc := range []struct{ w, n int }{{4, 8}, {4, 4}, {4, 2}, {2, 8}, {1, 4}} {
		c := buildSharded(t, sc.n, []relSpec{
			{"R", []string{"a", "b"}, rT},
			{"S", []string{"b", "c"}, sT},
		})
		p := Partition{Column: 0, Attr: "b", Mode: ModeRange}
		for i := 1; i < sc.n; i++ {
			p.Splits = append(p.Splits, i*3000/sc.n)
		}
		if err := c.ForcePartition("S", p); err != nil {
			t.Fatal(err)
		}
		q, err := c.Query("R(A,B), S(B,C)")
		if err != nil {
			t.Fatal(err)
		}
		pq, err := c.Prepare(q, &minesweeper.Options{GAO: []string{"B", "A", "C"}, Workers: sc.w})
		if err != nil {
			t.Fatal(err)
		}
		if ex := pq.Explain(); len(ex.Partitions) != 1 || !strings.HasSuffix(ex.Partitions[0], fmt.Sprintf("=b:range/%d", sc.n)) {
			t.Fatalf("plan is not sliced: %v", ex.Partitions)
		}
		// Sample the goroutine count for the whole run; the sampler is
		// one goroutine of its own.
		base := runtime.NumGoroutine()
		stop, peak := make(chan struct{}), make(chan int)
		go func() {
			most := 0
			for {
				select {
				case <-stop:
					peak <- most
					return
				default:
				}
				most = max(most, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}()
		_, err = pq.Execute()
		close(stop)
		started := <-peak - base - 1
		if err != nil {
			t.Fatal(err)
		}
		want := sc.w
		if sc.w == 1 {
			want = 0 // in-order morsels on the calling goroutine
		}
		if started > want {
			t.Fatalf("workers=%d over %d shards started %d goroutines, want ≤ %d", sc.w, sc.n, started, want)
		}
	}
}

// TestExplainPartitionsAndStats: a range partition on the leading GAO
// attribute slices the run and the plan says "rel=attr:range/N"; a hash
// partition, a frequency-permuted domain and a materializing engine
// read the relations unsliced and say "gathered". Every one streams the
// unsharded bytes, and ShardStats reports each shard's data volume.
func TestExplainPartitionsAndStats(t *testing.T) {
	var rT, sT [][]int
	for i := 0; i < 160; i++ {
		rT = append(rT, []int{i, i % 40})
		sT = append(sT, []int{i % 40, i})
	}
	c := buildSharded(t, 4, []relSpec{
		{"R", []string{"a", "b"}, rT},
		{"S", []string{"b", "c"}, sT},
	})
	const expr = "R(A,B), S(B,C)"
	gao := []string{"A", "B", "C"}
	check := func(part Partition, opts *minesweeper.Options, want string) {
		t.Helper()
		if err := c.ForcePartition("R", part); err != nil {
			t.Fatal(err)
		}
		q, err := c.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := c.Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ex := pq.Explain(); len(ex.Partitions) != 1 || ex.Partitions[0] != want {
			t.Fatalf("%s %+v: Explain.Partitions = %v, want [%s]", part.Mode, *opts, ex.Partitions, want)
		}
		var seen []string
		res := &minesweeper.Result{Vars: pq.OutputVars()}
		if _, err := pq.StreamContextExplained(context.Background(), func(ex minesweeper.Explain) { seen = ex.Partitions }, func(tu []int) bool {
			res.Tuples = append(res.Tuples, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || seen[0] != want {
			t.Fatalf("%s %+v: the run reported Partitions %v, want [%s]", part.Mode, *opts, seen, want)
		}
		ref := reference(t, c, expr, opts)
		if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
			t.Fatalf("%s %+v: stream diverges from the unsharded one", part.Mode, *opts)
		}
	}
	byRange := Partition{Column: 0, Attr: "a", Mode: ModeRange, Splits: []int{40, 80, 120}}
	check(byRange, &minesweeper.Options{GAO: gao}, "R=a:range/4")
	check(byRange, &minesweeper.Options{GAO: gao, Workers: 3}, "R=a:range/4")
	check(byRange, &minesweeper.Options{GAO: gao, Domain: minesweeper.DomainFreq}, "gathered")
	check(byRange, &minesweeper.Options{GAO: gao, Engine: minesweeper.EngineHashPlan}, "gathered")
	check(Partition{Column: 0, Attr: "a", Mode: ModeHash}, &minesweeper.Options{GAO: gao}, "gathered")

	stats := c.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats returned %d entries, want 4", len(stats))
	}
	tuples := 0
	for _, st := range stats {
		tuples += st.Tuples
	}
	if tuples != len(rT)+len(sT) {
		t.Fatalf("per-shard tuples sum to %d, want %d (every row in one fragment)", tuples, len(rT)+len(sT))
	}
}
