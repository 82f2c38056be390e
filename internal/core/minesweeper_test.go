package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
)

func mustProblem(t *testing.T, gao []string, atoms []AtomSpec) *Problem {
	t.Helper()
	p, err := NewProblem(gao, atoms)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	p.Debug = true
	return p
}

func runMS(t *testing.T, p *Problem) ([][]int, *certificate.Stats) {
	t.Helper()
	var s certificate.Stats
	out, err := MinesweeperAll(p, &s)
	if err != nil {
		t.Fatalf("Minesweeper: %v", err)
	}
	sortTuples(out)
	return out, &s
}

func sortTuples(ts [][]int) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && lexLess(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// naiveJoin is an in-package brute-force oracle: enumerate the cross
// product of the candidate values per attribute drawn from the atoms'
// actual tuples, checking membership per atom. Exponential; for tiny
// tests only.
func naiveJoin(gao []string, atoms []AtomSpec) [][]int {
	pos := map[string]int{}
	for i, a := range gao {
		pos[a] = i
	}
	domains := make(map[int]map[int]bool)
	for i := range gao {
		domains[i] = map[int]bool{}
	}
	for _, spec := range atoms {
		for _, tup := range spec.Tuples {
			for j, a := range spec.Attrs {
				domains[pos[a]][tup[j]] = true
			}
		}
	}
	var out [][]int
	t := make([]int, len(gao))
	var rec func(i int)
	rec = func(i int) {
		if i == len(gao) {
			for _, spec := range atoms {
				found := false
				for _, tup := range spec.Tuples {
					match := true
					for j, a := range spec.Attrs {
						if tup[j] != t[pos[a]] {
							match = false
							break
						}
					}
					if match {
						found = true
						break
					}
				}
				if !found {
					return
				}
			}
			out = append(out, append([]int(nil), t...))
			return
		}
		for v := range domains[i] {
			t[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	sortTuples(out)
	return out
}

func TestProblemValidation(t *testing.T) {
	if _, err := NewProblem([]string{"A"}, nil); err == nil {
		t.Fatal("no atoms must fail")
	}
	if _, err := NewProblem([]string{"A", "A"}, []AtomSpec{{Name: "R", Attrs: []string{"A"}}}); err == nil {
		t.Fatal("duplicate GAO must fail")
	}
	if _, err := NewProblem([]string{"A"}, []AtomSpec{{Name: "R", Attrs: []string{"B"}}}); err == nil {
		t.Fatal("unknown attribute must fail")
	}
	if _, err := NewProblem([]string{"A", "B"}, []AtomSpec{{Name: "R", Attrs: []string{"A"}}}); err == nil {
		t.Fatal("uncovered attribute must fail")
	}
	if _, err := NewProblem([]string{"A"}, []AtomSpec{{Name: "R", Attrs: []string{"A", "A"}}}); err == nil {
		t.Fatal("repeated atom attribute must fail")
	}
	if _, err := NewProblem([]string{"A"}, []AtomSpec{{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1, 2}}}}); err == nil {
		t.Fatal("ragged tuple must fail")
	}
}

func TestColumnPermutation(t *testing.T) {
	// Atom declared as R(B, A) must be indexed as (A, B) under GAO (A, B).
	p := mustProblem(t, []string{"A", "B"}, []AtomSpec{
		{Name: "R", Attrs: []string{"B", "A"}, Tuples: [][]int{{10, 1}, {20, 2}}},
	})
	got := p.Atoms[0].Tree.Tuples()
	want := [][]int{{1, 10}, {2, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted tuples = %v", got)
	}
	if !reflect.DeepEqual(p.Atoms[0].Positions, []int{0, 1}) {
		t.Fatalf("positions = %v", p.Atoms[0].Positions)
	}
}

func TestExample21RAJoinTAB(t *testing.T) {
	// Q = R(A) ⋈ T(A,B) from Example 2.1 with N=3:
	// R = [3], T = {(1,2i)} ∪ {(2,3i)}.
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {2}, {3}}},
		{Name: "T", Attrs: []string{"A", "B"}, Tuples: [][]int{{1, 2}, {1, 4}, {1, 6}, {2, 3}, {2, 6}, {2, 9}}},
	}
	p := mustProblem(t, []string{"A", "B"}, atoms)
	got, stats := runMS(t, p)
	want := [][]int{{1, 2}, {1, 4}, {1, 6}, {2, 3}, {2, 6}, {2, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output = %v", got)
	}
	if stats.Outputs != 6 {
		t.Fatalf("Outputs = %d", stats.Outputs)
	}
}

func TestEmptyJoinConstantCertificate(t *testing.T) {
	// Example B.1: R = [N], S = {N+1..2N} ⇒ empty output with an O(1)
	// certificate {R[N] < S[1]}. Minesweeper must finish with O(1) probes.
	const n = 1000
	var r, s [][]int
	for i := 1; i <= n; i++ {
		r = append(r, []int{i})
		s = append(s, []int{n + i})
	}
	p := mustProblem(t, []string{"A"}, []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: r},
		{Name: "S", Attrs: []string{"A"}, Tuples: s},
	})
	got, stats := runMS(t, p)
	if len(got) != 0 {
		t.Fatalf("expected empty join, got %d tuples", len(got))
	}
	if stats.ProbePoints > 5 {
		t.Fatalf("ProbePoints = %d; constant-certificate instance should need O(1) probes", stats.ProbePoints)
	}
}

func TestBowtieViaGenericEngine(t *testing.T) {
	// R(X) ⋈ S(X,Y) ⋈ T(Y).
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"X"}, Tuples: [][]int{{1}, {2}, {5}}},
		{Name: "S", Attrs: []string{"X", "Y"}, Tuples: [][]int{{1, 10}, {1, 20}, {2, 10}, {3, 30}, {5, 20}}},
		{Name: "T", Attrs: []string{"Y"}, Tuples: [][]int{{10}, {20}, {40}}},
	}
	gao := []string{"X", "Y"}
	p := mustProblem(t, gao, atoms)
	got, _ := runMS(t, p)
	want := naiveJoin(gao, atoms)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTriangleViaGenericEngine(t *testing.T) {
	// β-cyclic triangle query through the general shadow-chain CDS.
	edges := [][]int{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {2, 4}, {3, 5}}
	sym := func(es [][]int) [][]int {
		var out [][]int
		for _, e := range es {
			out = append(out, []int{e[0], e[1]}, []int{e[1], e[0]})
		}
		return out
	}
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: sym(edges)},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: sym(edges)},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: sym(edges)},
	}
	gao := []string{"A", "B", "C"}
	p := mustProblem(t, gao, atoms)
	got, _ := runMS(t, p)
	want := naiveJoin(gao, atoms)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("test graph has triangles; join must be non-empty")
	}
}

func TestHigherArityAtoms(t *testing.T) {
	// R(A,B,C) ⋈ S(A,C) ⋈ T(B,C): Example B.7's query.
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B", "C"}, Tuples: [][]int{{1, 1, 1}, {2, 2, 2}, {1, 2, 2}, {3, 1, 2}}},
		{Name: "S", Attrs: []string{"A", "C"}, Tuples: [][]int{{1, 1}, {1, 2}, {2, 2}}},
		{Name: "T", Attrs: []string{"B", "C"}, Tuples: [][]int{{1, 1}, {2, 2}}},
	}
	for _, gao := range [][]string{{"C", "A", "B"}, {"A", "B", "C"}} {
		p := mustProblem(t, gao, atoms)
		got, _ := runMS(t, p)
		want := naiveJoin(gao, atoms)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GAO %v: got %v want %v", gao, got, want)
		}
	}
}

func TestSelfJoinSharedData(t *testing.T) {
	// Star query with the same edge data bound twice: S(A,B) ⋈ S(A,C).
	edges := [][]int{{1, 2}, {1, 3}, {2, 4}}
	atoms := []AtomSpec{
		{Name: "S1", Attrs: []string{"A", "B"}, Tuples: edges},
		{Name: "S2", Attrs: []string{"A", "C"}, Tuples: edges},
	}
	gao := []string{"A", "B", "C"}
	p := mustProblem(t, gao, atoms)
	got, _ := runMS(t, p)
	want := naiveJoin(gao, atoms)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestEmptyRelationGivesEmptyJoin(t *testing.T) {
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {2}}},
		{Name: "S", Attrs: []string{"A", "B"}, Tuples: nil},
	}
	p := mustProblem(t, []string{"A", "B"}, atoms)
	got, _ := runMS(t, p)
	if len(got) != 0 {
		t.Fatalf("expected empty join, got %v", got)
	}
}

// TestRandomQueriesAgainstOracle is the main integration property: on
// random small instances of several query shapes (β-acyclic and cyclic),
// Minesweeper must produce exactly the naive join result.
func TestRandomQueriesAgainstOracle(t *testing.T) {
	shapes := []struct {
		name  string
		gao   []string
		atoms []struct {
			name  string
			attrs []string
		}
	}{
		{"path3", []string{"A", "B", "C"}, []struct {
			name  string
			attrs []string
		}{{"R", []string{"A", "B"}}, {"S", []string{"B", "C"}}}},
		{"bowtie", []string{"A", "B"}, []struct {
			name  string
			attrs []string
		}{{"R", []string{"A"}}, {"S", []string{"A", "B"}}, {"T", []string{"B"}}}},
		{"triangle", []string{"A", "B", "C"}, []struct {
			name  string
			attrs []string
		}{{"R", []string{"A", "B"}}, {"S", []string{"B", "C"}}, {"T", []string{"A", "C"}}}},
		{"star", []string{"A", "B", "C"}, []struct {
			name  string
			attrs []string
		}{{"S1", []string{"A", "B"}}, {"S2", []string{"A", "C"}}, {"RB", []string{"B"}}}},
		{"wide", []string{"A", "B", "C", "D"}, []struct {
			name  string
			attrs []string
		}{{"R", []string{"A", "B", "C"}}, {"S", []string{"B", "C", "D"}}, {"T", []string{"A", "D"}}}},
	}
	rng := rand.New(rand.NewSource(42))
	for _, shape := range shapes {
		for trial := 0; trial < 12; trial++ {
			dom := 2 + rng.Intn(4)
			var atoms []AtomSpec
			for _, a := range shape.atoms {
				cnt := rng.Intn(12)
				var tuples [][]int
				for i := 0; i < cnt; i++ {
					tup := make([]int, len(a.attrs))
					for j := range tup {
						tup[j] = rng.Intn(dom)
					}
					tuples = append(tuples, tup)
				}
				atoms = append(atoms, AtomSpec{Name: a.name, Attrs: a.attrs, Tuples: tuples})
			}
			p := mustProblem(t, shape.gao, atoms)
			got, _ := runMS(t, p)
			want := naiveJoin(shape.gao, atoms)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d:\natoms=%v\ngot  %v\nwant %v", shape.name, trial, atoms, got, want)
			}
		}
	}
}

// TestOutputsAreDistinct verifies set semantics: no duplicate outputs even
// with duplicate input tuples.
func TestOutputsAreDistinct(t *testing.T) {
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {1}, {2}}},
		{Name: "S", Attrs: []string{"A", "B"}, Tuples: [][]int{{1, 5}, {1, 5}, {2, 6}}},
	}
	p := mustProblem(t, []string{"A", "B"}, atoms)
	got, _ := runMS(t, p)
	seen := map[string]bool{}
	for _, tup := range got {
		k := fmt.Sprint(tup)
		if seen[k] {
			t.Fatalf("duplicate output %v", tup)
		}
		seen[k] = true
	}
	if len(got) != 2 {
		t.Fatalf("output = %v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	atoms := []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {3}}},
		{Name: "S", Attrs: []string{"A"}, Tuples: [][]int{{2}, {3}}},
	}
	p := mustProblem(t, []string{"A"}, atoms)
	_, stats := runMS(t, p)
	if stats.FindGaps == 0 || stats.ProbePoints == 0 || stats.Constraints == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.Outputs != 1 {
		t.Fatalf("Outputs = %d", stats.Outputs)
	}
}

func TestDuplicateAtomNamesRejected(t *testing.T) {
	_, err := NewProblem([]string{"A", "B"}, []AtomSpec{
		{Name: "R", Attrs: []string{"A"}},
		{Name: "R", Attrs: []string{"B"}},
	})
	if err == nil {
		t.Fatal("duplicate atom names must fail")
	}
}

// TestRuledOutIntervalExtremes is the regression test for the output
// rule-out constraint at extreme domain values: the naive (v-1, v+1)
// interval wraps around at math.MinInt/math.MaxInt, which would insert
// a constraint that does NOT cover the emitted tuple (non-termination).
// Endpoints must be clamped to the ±∞ sentinels and never overflow.
func TestRuledOutIntervalExtremes(t *testing.T) {
	cases := []struct {
		v              int
		wantLo, wantHi int
	}{
		{0, -1, 1},
		{42, 41, 43},
		{ordered.NegInf, ordered.NegInf, ordered.NegInf + 1},
		{ordered.PosInf, ordered.PosInf - 1, ordered.PosInf},
		{ordered.NegInf + 1, ordered.NegInf, ordered.NegInf + 2},
		{ordered.PosInf - 1, ordered.PosInf - 2, ordered.PosInf},
		// Beyond the sentinels (math extremes): clamp, don't wrap.
		{math.MinInt, ordered.NegInf, ordered.NegInf + 1},
		{math.MaxInt, ordered.PosInf - 1, ordered.PosInf},
	}
	for _, c := range cases {
		lo, hi := ruledOutInterval(c.v)
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("ruledOutInterval(%d) = (%d, %d), want (%d, %d)", c.v, lo, hi, c.wantLo, c.wantHi)
		}
		if lo > hi {
			t.Errorf("ruledOutInterval(%d) = (%d, %d): inverted interval", c.v, lo, hi)
		}
	}
}

// TestMinesweeperDomainMaxValues runs a join whose values sit at the top
// of the legal domain (PosInf-1): the rule-out constraint for such an
// output reaches the PosInf sentinel exactly, and evaluation must still
// terminate with the right answer.
func TestMinesweeperDomainMaxValues(t *testing.T) {
	top := ordered.PosInf - 1
	p := mustProblem(t, []string{"A", "B"}, []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: [][]int{{0, top}, {top, top}}},
		{Name: "S", Attrs: []string{"B"}, Tuples: [][]int{{top}}},
	})
	var s certificate.Stats
	out, err := MinesweeperAll(p, &s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, top}, {top, top}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestPlanSuffix(t *testing.T) {
	for _, c := range []struct {
		name      string
		n         int
		positions [][]int
		k         int
	}{
		{"one attribute", 1, [][]int{{0}, {0}}, 0},
		{"one atom", 3, [][]int{{0, 1, 2}}, 0},
		{"two-path [B A C]", 3, [][]int{{0, 1}, {0, 2}}, 1},
		{"two-path [A B C]", 3, [][]int{{0, 1}, {1, 2}}, 2},
		{"triangle", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 2},
		{"star", 4, [][]int{{0, 1}, {0, 2}, {0, 3}}, 1},
		{"path [B C A D]", 4, [][]int{{0, 2}, {0, 1}, {1, 3}}, 2},
		{"chain over an intersection", 3, [][]int{{0, 1, 2}, {0, 2}}, 1},
		{"two chains over an intersection", 4, [][]int{{0, 1, 3}, {2, 3}}, 2},
	} {
		if got := PlanSuffix(c.n, c.positions); got != c.k {
			t.Errorf("%s: k* = %d, want %d", c.name, got, c.k)
		}
	}
}

// The Debug order check stops a run at the first tuple that does not
// ascend strictly, before the receiver sees it.
func TestAscendingStopsOnRepeat(t *testing.T) {
	var got [][]int
	var bad error
	emit := ascending(func(t []int) bool {
		got = append(got, append([]int(nil), t...))
		return true
	}, &bad)
	for _, tup := range [][]int{{1, 9}, {2, 0}, {2, 3}} {
		if !emit(tup) || bad != nil {
			t.Fatalf("%v rejected after %v: %v", tup, got, bad)
		}
	}
	if emit([]int{2, 3}) || bad == nil {
		t.Fatal("a repeated tuple passed")
	}
	if emit([]int{1, 0}); len(got) != 3 {
		t.Fatalf("the receiver saw %v", got)
	}
}

// tripCtx reports cancellation once *tripped is set, so a test can
// cancel at an exact point of a run without a second goroutine.
type tripCtx struct {
	context.Context
	tripped *bool
}

func (c tripCtx) Err() error {
	if *c.tripped {
		return context.Canceled
	}
	return nil
}

// A walk whose subtree holds no further output still honours a cancel:
// under X(A,B,C), T(A,C) and [A B C] (k* = 1) the first output is
// (0,0,0), and every later B value's C run misses T. Cancelled at that
// output, the walk must stop at its first backtrack instead of stepping
// through all n B values before the sweep looks at ctx again.
func TestSuffixWalkCancelWithoutOutputs(t *testing.T) {
	const n = 5000
	x := [][]int{{0, 0, 0}}
	for b := 1; b <= n; b++ {
		x = append(x, []int{0, b, 1})
	}
	p := mustProblem(t, []string{"A", "B", "C"}, []AtomSpec{
		{Name: "X", Attrs: []string{"A", "B", "C"}, Tuples: x},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: [][]int{{0, 0}}},
	})
	if p.SuffixFrom() != 1 {
		t.Fatalf("k* = %d, want 1", p.SuffixFrom())
	}
	tripped := false
	var stats certificate.Stats
	var got [][]int
	err := MinesweeperStreamContext(tripCtx{context.Background(), &tripped}, p, &stats, func(t []int) bool {
		got = append(got, t)
		tripped = true
		return true
	})
	if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(got, [][]int{{0, 0, 0}}) {
		t.Fatalf("err = %v, tuples %v; want context.Canceled after [[0 0 0]]", err, got)
	}
	if stats.Comparisons >= n {
		t.Fatalf("%d comparisons after the cancel: the walk ran through the B values without checking ctx", stats.Comparisons)
	}
}
