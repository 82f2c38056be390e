package minesweeper

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Minesweeper walks the product suffix of every output it probes: below
// the cut level k* (Explain.SuffixFrom) the outputs that share the
// probe's prefix come from nested loops over the atoms' sibling runs,
// with the atoms' last-level runs intersected innermost, and one
// constraint rules the whole product out. These cases pin the walk's
// edges — the cut level, bounds on every walked level, point-bounded
// and one-attribute orders, morsel views, limits and cancellation
// inside a run or a product, several atoms ending on the last attribute
// and self-joins — against Leapfrog and the hash plan, byte for byte.

// runRel builds a relation whose tuples share long last-level runs:
// every (a, b) with a < na, b < nb, kept when keep(a, b).
func runRel(t *testing.T, name string, na, nb int, keep func(a, b int) bool) *Relation {
	t.Helper()
	var tuples [][]int
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			if keep(a, b) {
				tuples = append(tuples, []int{a, b})
			}
		}
	}
	return rel(t, name, 2, tuples)
}

// assertSameStream runs q under opts with Minesweeper (Debug on),
// Leapfrog and the hash plan, and fails unless the three streams render
// to the same bytes. It returns the Minesweeper result.
func assertSameStream(t *testing.T, q *Query, opts Options) *Result {
	t.Helper()
	var ms *Result
	var want string
	for _, eng := range []Engine{EngineHashPlan, EngineLeapfrog, EngineMinesweeper} {
		o := opts
		o.Engine, o.Debug = eng, eng == EngineMinesweeper
		res, err := Execute(q, &o)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		got := fmt.Sprint(res.Tuples)
		if eng == EngineHashPlan {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%v diverges from the hash plan:\ngot  %s\nwant %s", eng, got, want)
		}
		// The shaper drops tuples outside the bounds, so only the raw
		// count shows a walk that overruns one.
		if res.Stats.Outputs != int64(len(res.Tuples)) {
			t.Fatalf("%v: %d raw outputs for %d tuples", eng, res.Stats.Outputs, len(res.Tuples))
		}
		ms = res
	}
	return ms
}

func TestLastLevelWalkBoundOnLastAttribute(t *testing.T) {
	r := runRel(t, "R", 6, 4, func(a, b int) bool { return (a+b)%3 != 0 })
	s := runRel(t, "S", 4, 40, func(b, c int) bool { return (b*c)%7 != 3 })
	q, err := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}}, Atom{Rel: s, Vars: []string{"B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range [][]Filter{
		{{Var: "C", Op: "<=", Value: 17}},
		{{Var: "C", Op: ">=", Value: 5}, {Var: "C", Op: "<", Value: 30}},
		{{Var: "C", Op: "=", Value: 11}},
		{{Var: "C", Op: "<=", Value: 0}},
	} {
		t.Run(fmt.Sprint(where), func(t *testing.T) {
			res := assertSameStream(t, q, Options{GAO: []string{"A", "B", "C"}, Where: where})
			if len(res.Tuples) == 0 {
				t.Fatal("empty result: the bound is not exercised")
			}
		})
	}
}

// Every position pinned to a point: the walk starts and ends on the
// last position's point bound.
func TestLastLevelWalkAllConstant(t *testing.T) {
	r := rel(t, "R", 2, [][]int{{1, 2}, {1, 3}, {2, 2}})
	s := rel(t, "S", 2, [][]int{{2, 5}, {2, 6}, {3, 5}})
	rels := map[string]*Relation{"R": r, "S": s}
	for _, c := range []struct {
		expr string
		z    int
	}{
		{"R(A, B), S(B, C) where A = 1, B = 2, C = 5", 1},
		{"R(A, B), S(B, C) where A = 1, B = 2, C = 7", 0},
		{"R(1, B), S(B, 5) where B = 2", 1},
		{"R(1, B), S(B, C) where C = 5", 2},
		{"R(1, B), S(B, 5)", 2},
	} {
		t.Run(c.expr, func(t *testing.T) {
			q, err := ParseQuery(c.expr, rels)
			if err != nil {
				t.Fatal(err)
			}
			if res := assertSameStream(t, q, Options{}); len(res.Tuples) != c.z {
				t.Fatalf("%d tuples, want %d", len(res.Tuples), c.z)
			}
		})
	}
}

func TestLastLevelWalkSetIntersection(t *testing.T) {
	set := func(name string, keep func(v int) bool) *Relation {
		var tuples [][]int
		for v := 0; v < 2000; v++ {
			if keep(v) {
				tuples = append(tuples, []int{v})
			}
		}
		return rel(t, name, 1, tuples)
	}
	q, err := NewQuery(
		Atom{Rel: set("R", func(v int) bool { return v%2 == 0 || v > 1500 }), Vars: []string{"A"}},
		Atom{Rel: set("S", func(v int) bool { return v%3 != 1 }), Vars: []string{"A"}},
		Atom{Rel: set("U", func(v int) bool { return v < 700 || v > 1200 }), Vars: []string{"A"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := assertSameStream(t, q, Options{Workers: workers})
			// Each morsel's walk must stay inside its SliceTop view: a
			// walk past it would repeat the next morsel's values.
			if len(res.Tuples) < 500 {
				t.Fatalf("only %d tuples", len(res.Tuples))
			}
		})
	}
}

func TestLastLevelWalkLimitAndCancel(t *testing.T) {
	// One prefix (A=0, B=0) with a 300-tuple run, then shorter ones.
	r := rel(t, "R", 2, [][]int{{0, 0}, {0, 1}, {1, 0}})
	s := runRel(t, "S", 2, 300, func(b, c int) bool { return b == 0 || c%5 == 0 })
	q, err := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}}, Atom{Rel: s, Vars: []string{"B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GAO: []string{"A", "B", "C"}}
	full := assertSameStream(t, q, opts)
	if full.Stats.ProbePoints*10 > int64(len(full.Tuples)) {
		t.Fatalf("%d probes for %d outputs: runs are not walked", full.Stats.ProbePoints, len(full.Tuples))
	}
	for _, k := range []int{1, 2, 137, 300, 301, 350} {
		for _, eng := range []Engine{EngineMinesweeper, EngineLeapfrog} {
			res, err := ExecuteLimit(q, &Options{Engine: eng, GAO: opts.GAO}, k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(res.Tuples), fmt.Sprint(full.Tuples[:k]); got != want {
				t.Fatalf("%v limit %d:\ngot  %s\nwant %s", eng, k, got, want)
			}
		}
	}
	for _, at := range []int{1, 5, 299, 302} {
		ctx, cancel := context.WithCancel(context.Background())
		seen, late := 0, false
		_, err := ExecuteStreamContext(ctx, q, &Options{Engine: EngineMinesweeper, GAO: opts.GAO}, func(tup []int) bool {
			if ctx.Err() != nil {
				late = true
			}
			if fmt.Sprint(tup) != fmt.Sprint(full.Tuples[seen]) {
				t.Errorf("cancel at %d: tuple %d = %v, want %v", at, seen, tup, full.Tuples[seen])
			}
			seen++
			if seen == at {
				cancel()
			}
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", at, err)
		}
		if late || seen != at {
			t.Fatalf("cancel at %d: %d tuples yielded, late=%v", at, seen, late)
		}
	}
}

func TestLastLevelWalkTriangle(t *testing.T) {
	edges := func(name string, mod int) *Relation {
		return runRel(t, name, 30, 30, func(a, b int) bool { return (a*b+a+b)%mod != 0 })
	}
	q, err := NewQuery(
		Atom{Rel: edges("R", 3), Vars: []string{"A", "B"}},
		Atom{Rel: edges("S", 4), Vars: []string{"B", "C"}},
		Atom{Rel: edges("T", 5), Vars: []string{"A", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, gao := range [][]string{{"A", "B", "C"}, {"C", "B", "A"}} {
		t.Run(fmt.Sprint(gao), func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				if res := assertSameStream(t, q, Options{GAO: gao, Workers: workers}); len(res.Tuples) == 0 {
					t.Fatal("no triangles")
				}
			}
		})
	}
}

func TestLastLevelWalkSelfJoin(t *testing.T) {
	e := runRel(t, "E", 40, 40, func(a, b int) bool { return (a+2*b)%5 < 3 })
	q, err := NewQuery(Atom{Rel: e, Vars: []string{"A", "B"}}, Atom{Rel: e, Vars: []string{"B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, gao := range [][]string{{"A", "B", "C"}, {"B", "A", "C"}, {"B", "C", "A"}} {
		if res := assertSameStream(t, q, Options{GAO: gao}); len(res.Tuples) == 0 {
			t.Fatalf("%v: empty self-join", gao)
		}
	}
}

// suffixFrom returns the cut level the prepared plan reports, and fails
// unless Query.Explain, which binds nothing, reports the same.
func suffixFrom(t *testing.T, q *Query, opts Options) int {
	t.Helper()
	pq, err := q.Prepare(&opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := q.Explain(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pq.Explain().SuffixFrom; got != ex.SuffixFrom {
		t.Fatalf("prepared plan reports k* = %d, Query.Explain %d", got, ex.SuffixFrom)
	}
	return ex.SuffixFrom
}

// suffixQuery builds a query over runRel relations: one per atom, named
// by the atom's position, binary unless the atom has three variables.
func suffixQuery(t *testing.T, vars ...[]string) *Query {
	t.Helper()
	var atoms []Atom
	for i, v := range vars {
		name := fmt.Sprintf("R%d", i)
		r := runRel(t, name, 12, 12, func(a, b int) bool { return (a*(i+2)+b*(i+1))%5 < 3 })
		if len(v) == 3 {
			var tuples [][]int
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					for c := 0; c < 12; c++ {
						if (a+2*b+3*c)%4 < 2 {
							tuples = append(tuples, []int{a, b, c})
						}
					}
				}
			}
			r = rel(t, name, 3, tuples)
		}
		atoms = append(atoms, Atom{Rel: r, Vars: v})
	}
	q, err := NewQuery(atoms...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSuffixWalkCutLevel(t *testing.T) {
	ab, bc, cd := []string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}
	ac, ad := []string{"A", "C"}, []string{"A", "D"}
	for _, c := range []struct {
		name string
		vars [][]string
		gao  string
		k    int
	}{
		// A lives only in R and C only in S below B: msserve's out_bound.
		{"two-path", [][]string{ab, bc}, "BAC", 1},
		{"star", [][]string{ab, ac, ad}, "ABCD", 1},
		{"path", [][]string{ab, bc, cd}, "BCAD", 2},
		{"path", [][]string{ab, bc, cd}, "CBAD", 2},
		{"path", [][]string{ab, bc, cd}, "ABCD", 3},
		{"triangle", [][]string{ab, bc, ac}, "ABC", 2},
		// Two atoms meet on C below X's chain: the product stays one
		// atom's runs above the intersection.
		{"chain over intersection", [][]string{{"A", "B", "C"}, ac}, "ABC", 1},
		// Two atoms meet on D, and above it B is X's and C is Y's: a walk
		// from B would try every (b, c) pair for an intersection, so the
		// cut stays below B, where C is Y's run alone.
		{"pairs over intersection", [][]string{{"A", "B", "D"}, cd}, "ABCD", 2},
	} {
		gao := strings.Split(c.gao, "")
		t.Run(c.name+"/"+c.gao, func(t *testing.T) {
			q := suffixQuery(t, c.vars...)
			if got := suffixFrom(t, q, Options{GAO: gao}); got != c.k {
				t.Fatalf("k* = %d, want %d", got, c.k)
			}
			for _, workers := range []int{1, 4} {
				if res := assertSameStream(t, q, Options{GAO: gao, Workers: workers}); len(res.Tuples) == 0 {
					t.Fatal("empty join: the walk is not exercised")
				}
			}
		})
	}
}

// Every walked level bounded below and above, one at a time and all at
// once: a walk must clip each level's run to its bound on entry and on
// every step. In X(A,B,D), Y(A,C) a point bound on D empties the D runs
// of some B values, and the walk must go back to B past C.
func TestSuffixWalkBounds(t *testing.T) {
	for _, c := range []struct {
		vars [][]string
		gao  string
	}{
		{[][]string{{"A", "B"}, {"A", "C"}, {"A", "D"}}, "ABCD"},
		{[][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}, "BCAD"},
		{[][]string{{"A", "B", "C"}, {"A", "C"}}, "ABC"},
		{[][]string{{"A", "B", "D"}, {"A", "C"}}, "ABCD"},
	} {
		q := suffixQuery(t, c.vars...)
		gao := strings.Split(c.gao, "")
		k := suffixFrom(t, q, Options{GAO: gao})
		var all []Filter
		for _, v := range gao[k:] {
			lohi := []Filter{{Var: v, Op: ">=", Value: 2}, {Var: v, Op: "<=", Value: 8}}
			all = append(all, lohi...)
			for _, where := range [][]Filter{lohi[:1], lohi[1:], lohi, {{Var: v, Op: "=", Value: 3}}} {
				t.Run(fmt.Sprint(c.gao, where), func(t *testing.T) {
					for _, workers := range []int{1, 4} {
						if res := assertSameStream(t, q, Options{GAO: gao, Where: where, Workers: workers}); len(res.Tuples) == 0 {
							t.Fatal("empty result: the bound is not exercised")
						}
					}
				})
			}
		}
		t.Run(fmt.Sprint(c.gao, all), func(t *testing.T) {
			if res := assertSameStream(t, q, Options{GAO: gao, Where: all}); len(res.Tuples) == 0 {
				t.Fatal("empty result: the bounds are not exercised")
			}
		})
	}
}

// A star whose first output, the all-zero tuple, heads a 10 × 10 × 10
// product below A = 0. A limit-1 run costs one output probe: two probe
// points in all, since every run first sweeps the corner below the
// domain. A limit anywhere inside the product costs no further probe,
// and a cancel inside it yields exactly the tuples before it.
func TestSuffixWalkLimitAndCancel(t *testing.T) {
	leaf := func(name string) *Relation {
		return runRel(t, name, 3, 10, func(a, b int) bool { return a == 0 || b%3 == a })
	}
	q, err := NewQuery(
		Atom{Rel: leaf("R"), Vars: []string{"A", "B"}},
		Atom{Rel: leaf("S"), Vars: []string{"A", "C"}},
		Atom{Rel: leaf("T"), Vars: []string{"A", "D"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GAO: []string{"A", "B", "C", "D"}}
	if k := suffixFrom(t, q, opts); k != 1 {
		t.Fatalf("k* = %d, want 1", k)
	}
	full := assertSameStream(t, q, opts)
	one, err := ExecuteLimit(q, &Options{Engine: EngineMinesweeper, GAO: opts.GAO}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.ProbePoints != 2 {
		t.Fatalf("a limit-1 run took %d probes, want the corner and the output", one.Stats.ProbePoints)
	}
	for _, k := range []int{1, 2, 10, 11, 101, 999, 1000, 1001, 1020} {
		for _, eng := range []Engine{EngineMinesweeper, EngineLeapfrog} {
			res, err := ExecuteLimit(q, &Options{Engine: eng, GAO: opts.GAO}, k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(res.Tuples), fmt.Sprint(full.Tuples[:k]); got != want {
				t.Fatalf("%v limit %d:\ngot  %s\nwant %s", eng, k, got, want)
			}
			if eng == EngineMinesweeper && k <= 1000 && res.Stats.ProbePoints != one.Stats.ProbePoints {
				t.Fatalf("limit %d inside the first product took %d probes, limit 1 %d", k, res.Stats.ProbePoints, one.Stats.ProbePoints)
			}
		}
	}
	for _, at := range []int{1, 7, 10, 11, 500, 1000, 1001} {
		ctx, cancel := context.WithCancel(context.Background())
		seen, late := 0, false
		_, err := ExecuteStreamContext(ctx, q, &Options{Engine: EngineMinesweeper, GAO: opts.GAO}, func(tup []int) bool {
			if ctx.Err() != nil {
				late = true
			}
			if fmt.Sprint(tup) != fmt.Sprint(full.Tuples[seen]) {
				t.Errorf("cancel at %d: tuple %d = %v, want %v", at, seen, tup, full.Tuples[seen])
			}
			seen++
			if seen == at {
				cancel()
			}
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", at, err)
		}
		if late || seen != at {
			t.Fatalf("cancel at %d: %d tuples yielded, late=%v", at, seen, late)
		}
	}
}

// The self-join star R(A,B), R(A,C) walks two views of one index.
func TestSuffixWalkSelfJoinStar(t *testing.T) {
	r := runRel(t, "R", 30, 30, func(a, b int) bool { return (a*b+a)%4 != 1 })
	q, err := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}}, Atom{Rel: r, Vars: []string{"A", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GAO: []string{"A", "B", "C"}}
	if k := suffixFrom(t, q, opts); k != 1 {
		t.Fatalf("k* = %d, want 1", k)
	}
	for _, c := range []struct{ workers, morsels int }{{1, 1}, {4, 16}} {
		opts.Workers = c.workers
		res := assertSameStream(t, q, opts)
		// One gap probe and one output probe per A value, and one corner
		// probe per morsel.
		if res.Stats.ProbePoints > 2*30+int64(c.morsels) {
			t.Fatalf("workers=%d: %d probes for 30 A values", c.workers, res.Stats.ProbePoints)
		}
	}
}
