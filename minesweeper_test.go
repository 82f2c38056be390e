package minesweeper

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"minesweeper/internal/dataset"
)

func rel(t *testing.T, name string, arity int, tuples [][]int) *Relation {
	t.Helper()
	r, err := NewRelation(name, arity, tuples)
	if err != nil {
		t.Fatalf("NewRelation: %v", err)
	}
	return r
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("R", 0, nil); err == nil {
		t.Fatal("arity 0 must fail")
	}
	if _, err := NewRelation("R", 2, [][]int{{1}}); err == nil {
		t.Fatal("ragged tuple must fail")
	}
	if _, err := NewRelation("R", 1, [][]int{{-1}}); err == nil {
		t.Fatal("negative value must fail")
	}
	r := rel(t, "R", 2, [][]int{{1, 2}})
	if r.Name() != "R" || r.Arity() != 2 || r.Len() != 1 {
		t.Fatal("accessors wrong")
	}
}

func TestRelationIsCopied(t *testing.T) {
	src := [][]int{{1, 2}}
	r := rel(t, "R", 2, src)
	src[0][0] = 99
	q, _ := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}})
	res, err := Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples[0][0] == 99 {
		t.Fatal("relation aliased caller's slice")
	}
}

func TestNewQueryValidation(t *testing.T) {
	r := rel(t, "R", 2, nil)
	if _, err := NewQuery(); err == nil {
		t.Fatal("empty query must fail")
	}
	if _, err := NewQuery(Atom{Rel: nil, Vars: []string{"A"}}); err == nil {
		t.Fatal("nil relation must fail")
	}
	if _, err := NewQuery(Atom{Rel: r, Vars: []string{"A"}}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := NewQuery(Atom{Rel: r, Vars: []string{"A", "A"}}); err == nil {
		t.Fatal("repeated var must fail")
	}
}

func TestQueryStructure(t *testing.T) {
	r := rel(t, "R", 2, nil)
	s := rel(t, "S", 2, nil)
	u := rel(t, "T", 2, nil)
	tri, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: s, Vars: []string{"B", "C"}},
		Atom{Rel: u, Vars: []string{"A", "C"}},
	)
	if tri.IsAlphaAcyclic() || tri.IsBetaAcyclic() {
		t.Fatal("triangle should be cyclic")
	}
	if _, ok := tri.NestedEliminationOrder(); ok {
		t.Fatal("triangle has no NEO")
	}
	gao, w := tri.RecommendGAO()
	if len(gao) != 3 || w != 2 {
		t.Fatalf("RecommendGAO = %v, %d", gao, w)
	}
	path, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: s, Vars: []string{"B", "C"}},
	)
	if !path.IsAlphaAcyclic() || !path.IsBetaAcyclic() {
		t.Fatal("path should be acyclic")
	}
	gao, w = path.RecommendGAO()
	if w != 1 {
		t.Fatalf("path width = %d", w)
	}
	if ew, err := path.EliminationWidth(gao); err != nil || ew != 1 {
		t.Fatalf("EliminationWidth = %d, %v", ew, err)
	}
	if got := path.Vars(); len(got) != 3 {
		t.Fatalf("Vars = %v", got)
	}
}

func TestExecuteAllEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	mkRel := func(name string, arity, n, dom int) *Relation {
		var tuples [][]int
		for i := 0; i < n; i++ {
			tup := make([]int, arity)
			for j := range tup {
				tup[j] = rng.Intn(dom)
			}
			tuples = append(tuples, tup)
		}
		return rel(t, name, arity, tuples)
	}
	for trial := 0; trial < 8; trial++ {
		r := mkRel("R", 2, 20, 5)
		s := mkRel("S", 2, 20, 5)
		u := mkRel("U", 1, 4, 5)
		q, err := NewQuery(
			Atom{Rel: r, Vars: []string{"A", "B"}},
			Atom{Rel: s, Vars: []string{"B", "C"}},
			Atom{Rel: u, Vars: []string{"B"}},
		)
		if err != nil {
			t.Fatal(err)
		}
		gao, _ := q.RecommendGAO()
		var ref [][]int
		for _, engine := range []Engine{EngineHashPlan, EngineMinesweeper, EngineLeapfrog, EngineNPRR, EngineYannakakis} {
			res, err := Execute(q, &Options{Engine: engine, GAO: gao, Debug: true})
			if err != nil {
				t.Fatalf("engine %v: %v", engine, err)
			}
			if ref == nil {
				ref = res.Tuples
				continue
			}
			if !reflect.DeepEqual(res.Tuples, ref) {
				t.Fatalf("trial %d: engine %v diverges:\n%v\nvs\n%v", trial, engine, res.Tuples, ref)
			}
		}
	}
}

func TestExecuteAuto(t *testing.T) {
	r := rel(t, "R", 2, [][]int{{1, 2}, {2, 3}})
	s := rel(t, "S", 2, [][]int{{2, 5}, {3, 7}})
	q, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: s, Vars: []string{"B", "C"}},
	)
	res, err := Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	if res.Stats.FindGaps == 0 {
		t.Fatal("stats empty")
	}
	if len(res.Vars) != 3 || len(res.GAO) != 3 {
		t.Fatalf("vars = %v", res.Vars)
	}
	// Tuples must come back over the GAO: remap to (A,B,C) and check.
	pos := map[string]int{}
	for i, v := range res.Vars {
		pos[v] = i
	}
	for _, tup := range res.Tuples {
		a, b, c := tup[pos["A"]], tup[pos["B"]], tup[pos["C"]]
		if !((a == 1 && b == 2 && c == 5) || (a == 2 && b == 3 && c == 7)) {
			t.Fatalf("unexpected tuple A=%d B=%d C=%d", a, b, c)
		}
	}
}

func TestExecuteYannakakisRejectsCyclic(t *testing.T) {
	r := rel(t, "R", 2, nil)
	q, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: r, Vars: []string{"B", "C"}},
		Atom{Rel: r, Vars: []string{"A", "C"}},
	)
	if _, err := Execute(q, &Options{Engine: EngineYannakakis}); err == nil {
		t.Fatal("Yannakakis on cyclic query must error")
	}
}

func TestExecuteBadGAO(t *testing.T) {
	r := rel(t, "R", 2, nil)
	q, _ := NewQuery(Atom{Rel: r, Vars: []string{"A", "B"}})
	if _, err := Execute(q, &Options{GAO: []string{"A"}}); err == nil {
		t.Fatal("short GAO must error")
	}
	if _, err := Execute(q, &Options{GAO: []string{"A", "X"}}); err == nil {
		t.Fatal("wrong GAO must error")
	}
}

// TestIntersectAPI: the wrapper reads unsorted sets with duplicates and
// returns the sorted distinct intersection, checked against a counting
// reference on random instances too.
func TestIntersectAPI(t *testing.T) {
	out, stats, err := Intersect([]int{1, 3, 5}, []int{3, 5, 9}, []int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{3, 5}) {
		t.Fatalf("out = %v", out)
	}
	if stats.CertificateEstimate() == 0 {
		t.Fatal("no FindGaps counted")
	}
	if out, _, err := Intersect([]int{4, 2, 2, 9}); err != nil || !reflect.DeepEqual(out, []int{2, 4, 9}) {
		t.Fatalf("Intersect(one set) = %v, %v", out, err)
	}
	if out, _, err := Intersect([]int{1, 2}, []int{}); err != nil || len(out) != 0 {
		t.Fatalf("Intersect with an empty set = %v, %v", out, err)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		sets := make([][]int, 1+rng.Intn(4))
		in := map[int]map[int]bool{}
		for i := range sets {
			for j, n := 0, rng.Intn(30); j < n; j++ {
				v := rng.Intn(20)
				sets[i] = append(sets[i], v)
				if in[v] == nil {
					in[v] = map[int]bool{}
				}
				in[v][i] = true
			}
		}
		var want []int
		for v := 0; v < 20; v++ {
			if len(in[v]) == len(sets) {
				want = append(want, v)
			}
		}
		got, _, err := Intersect(sets...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sets=%v got %v want %v", trial, sets, got, want)
		}
	}
}

// TestBowtieAPI: the wrapper's pairs are the bow-tie's, in strictly
// ascending lexicographic (x, y) order, on random instances with
// duplicates; empty inputs give empty outputs, and the hidden-gap
// instance after Algorithm 9 (R={2}, T={N+1}, S = {(1, N+1+i)} ∪
// {(3, i)}) costs O(1) probes.
func TestBowtieAPI(t *testing.T) {
	out, _, err := BowtieJoin([]int{1, 2}, [][]int{{1, 5}, {2, 6}, {3, 5}}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, [][]int{{1, 5}}) {
		t.Fatalf("out = %v", out)
	}
	for _, in := range []struct {
		r, t []int
		s    [][]int
	}{{}, {r: []int{1}, s: [][]int{{1, 2}}}} {
		if out, _, err := BowtieJoin(in.r, in.s, in.t); err != nil || len(out) != 0 {
			t.Fatalf("BowtieJoin(%v, %v, %v) = %v, %v", in.r, in.s, in.t, out, err)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		dom := 1 + rng.Intn(8)
		mk := func() ([]int, map[int]bool) {
			var vals []int
			set := map[int]bool{}
			for i, n := 0, rng.Intn(10); i < n; i++ {
				v := rng.Intn(dom)
				vals = append(vals, v)
				set[v] = true
			}
			return vals, set
		}
		r, inR := mk()
		ty, inT := mk()
		var s [][]int
		inS := map[[2]int]bool{}
		for i, n := 0, rng.Intn(20); i < n; i++ {
			p := []int{rng.Intn(dom), rng.Intn(dom)}
			s = append(s, p)
			inS[[2]int{p[0], p[1]}] = true
		}
		var want [][]int
		for x := 0; x < dom; x++ {
			for y := 0; y < dom; y++ {
				if inR[x] && inS[[2]int{x, y}] && inT[y] {
					want = append(want, []int{x, y})
				}
			}
		}
		got, _, err := BowtieJoin(r, s, ty)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: r=%v s=%v t=%v got %v want %v (lexicographic)", trial, r, s, ty, got, want)
			}
		}
	}
	const n = 200
	var s [][]int
	for i := 1; i <= n; i++ {
		s = append(s, []int{1, n + 1 + i}, []int{3, i})
	}
	out, st, err := BowtieJoin([]int{2}, s, []int{n + 1})
	if err != nil || len(out) != 0 {
		t.Fatalf("hidden gap: %v, %v", out, err)
	}
	if st.ProbePoints > 8 {
		t.Fatalf("hidden gap: ProbePoints = %d; the certificate is O(1)", st.ProbePoints)
	}
}

// TestIntersectCountersMatchGolden: the public wrapper does exactly the
// engine work the E-suite records for E4's tracked instances, so
// building relations and a query around the sets adds no probe,
// FindGap, comparison, constraint or CDS operation.
func TestIntersectCountersMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("internal/esuite/testdata/counters.golden")
	if err != nil {
		t.Fatal(err)
	}
	for name, sets := range map[string][][]int{
		"SetIntersectionInterleaved": dataset.InterleavedSets(4, 5000),
		"SetIntersectionBlocks":      dataset.BlockSets(4, 50000),
	} {
		var want []string
		for _, line := range strings.Split(string(golden), "\n") {
			if f := strings.Fields(line); len(f) > 5 && f[0] == name {
				want = f[1:6] // probes findgaps comparisons constraints cdsops
			}
		}
		_, st, err := Intersect(sets...)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Fields(fmt.Sprint(st.ProbePoints, st.FindGaps, st.Comparisons, st.Constraints, st.CDSOps))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Intersect counters %v, counters.golden %v", name, got, want)
		}
	}
}

func TestTriangleAPI(t *testing.T) {
	edges := [][]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}
	out, _, err := ListTriangles(edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("got %d ordered triangles, want 6", len(out))
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineMinesweeper: "minesweeper", EngineLeapfrog: "leapfrog",
		EngineNPRR: "nprr", EngineYannakakis: "yannakakis", EngineHashPlan: "hashplan",
		Engine(42): "engine(42)",
	} {
		if got := e.String(); got != want {
			t.Fatalf("Engine(%d).String() = %q", int(e), got)
		}
	}
}

func TestSelfJoinThroughAPI(t *testing.T) {
	edges := rel(t, "E", 2, [][]int{{1, 2}, {2, 3}, {1, 3}})
	q, _ := NewQuery(
		Atom{Rel: edges, Vars: []string{"A", "B"}},
		Atom{Rel: edges, Vars: []string{"B", "C"}},
	)
	res, err := Execute(q, &Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	// Paths of length 2: 1→2→3.
	pos := map[string]int{}
	for i, v := range res.Vars {
		pos[v] = i
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples = %v over %v", res.Tuples, res.Vars)
	}
	tup := res.Tuples[0]
	if tup[pos["A"]] != 1 || tup[pos["B"]] != 2 || tup[pos["C"]] != 3 {
		t.Fatalf("tuple = %v over %v", tup, res.Vars)
	}
}

func TestExecuteParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var tuples [][]int
	for i := 0; i < 200; i++ {
		tuples = append(tuples, []int{rng.Intn(30), rng.Intn(30)})
	}
	e := rel(t, "E", 2, tuples)
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	gao := []string{"A", "B", "C"}
	seq, err := Execute(q, &Options{GAO: gao})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(q, &Options{GAO: gao, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Tuples, seq.Tuples) {
		t.Fatalf("parallel (%d tuples) != sequential (%d tuples)", len(par.Tuples), len(seq.Tuples))
	}
	if par.Stats.FindGaps == 0 {
		t.Fatal("parallel stats not merged")
	}
}

func TestExecuteLimit(t *testing.T) {
	var tuples [][]int
	for i := 0; i < 100; i++ {
		tuples = append(tuples, []int{i, i + 1})
	}
	e := rel(t, "E", 2, tuples)
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(q, &Options{GAO: []string{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Tuples) != 99 {
		t.Fatalf("full join = %d tuples", len(full.Tuples))
	}
	lim, err := ExecuteLimit(q, &Options{GAO: []string{"A", "B", "C"}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Tuples) != 5 {
		t.Fatalf("limited join = %d tuples", len(lim.Tuples))
	}
	// Early stop must do much less work than the full run.
	if lim.Stats.ProbePoints*4 > full.Stats.ProbePoints {
		t.Fatalf("limit probes %d vs full %d: no early-exit saving",
			lim.Stats.ProbePoints, full.Stats.ProbePoints)
	}
	// Every limited tuple is in the full result.
	set := map[string]bool{}
	for _, tup := range full.Tuples {
		set[fmt.Sprint(tup)] = true
	}
	for _, tup := range lim.Tuples {
		if !set[fmt.Sprint(tup)] {
			t.Fatalf("limited tuple %v not in full result", tup)
		}
	}
	// Degenerate limits.
	zero, err := ExecuteLimit(q, nil, 0)
	if err != nil || len(zero.Tuples) != 0 {
		t.Fatalf("limit 0: %v %v", zero.Tuples, err)
	}
	huge, err := ExecuteLimit(q, &Options{GAO: []string{"A", "B", "C"}}, 1<<30)
	if err != nil || len(huge.Tuples) != 99 {
		t.Fatalf("huge limit: %d tuples, %v", len(huge.Tuples), err)
	}
}

func TestQueryTreewidth(t *testing.T) {
	r := rel(t, "R", 2, nil)
	tri, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: r, Vars: []string{"B", "C"}},
		Atom{Rel: r, Vars: []string{"A", "C"}},
	)
	if w, err := tri.Treewidth(); err != nil || w != 2 {
		t.Fatalf("triangle treewidth = %d, %v", w, err)
	}
	path, _ := NewQuery(
		Atom{Rel: r, Vars: []string{"A", "B"}},
		Atom{Rel: r, Vars: []string{"B", "C"}},
	)
	if w, err := path.Treewidth(); err != nil || w != 1 {
		t.Fatalf("path treewidth = %d, %v", w, err)
	}
}

func TestFullCertificateAPI(t *testing.T) {
	r := rel(t, "R", 1, [][]int{{1}, {4}, {7}})
	s := rel(t, "S", 2, [][]int{{1, 5}, {4, 2}})
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"A"}},
		Atom{Rel: s, Vars: []string{"A", "B"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := FullCertificate(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Len() + 2*s.Len()
	if cert.Size() == 0 || cert.Size() > 2*n {
		t.Fatalf("|C| = %d out of range (N-ish = %d)", cert.Size(), n)
	}
	if len(cert.Comparisons()) != cert.Size() {
		t.Fatal("Comparisons length mismatch")
	}
	if cert.String() == "" {
		t.Fatal("empty String")
	}
	// Identity and order-preserving transforms satisfy; order-breaking not.
	for _, tc := range []struct {
		name string
		fn   func(int) int
		want bool
	}{
		{"identity", nil, true},
		{"affine", func(v int) int { return 3*v + 2 }, true},
		{"negate", func(v int) int { return 1000 - v }, false},
	} {
		got, err := cert.SatisfiedByTransform(tc.fn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: satisfied = %v, want %v", tc.name, got, tc.want)
		}
	}
}
