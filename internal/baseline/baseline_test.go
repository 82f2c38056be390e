package baseline

import (
	"math/rand"
	"reflect"
	"testing"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

func specsFor(t *testing.T, gao []string, atoms []core.AtomSpec) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func TestHashJoinBasic(t *testing.T) {
	a := tableFromSpec(core.AtomSpec{Name: "R", Attrs: []string{"A", "B"},
		Tuples: [][]int{{1, 10}, {2, 20}, {3, 30}}})
	b := tableFromSpec(core.AtomSpec{Name: "S", Attrs: []string{"B", "C"},
		Tuples: [][]int{{10, 100}, {10, 101}, {30, 300}}})
	out := HashJoin(a, b, nil)
	if !reflect.DeepEqual(out.attrs, []string{"A", "B", "C"}) {
		t.Fatalf("attrs = %v", out.attrs)
	}
	SortTuples(out.tuples)
	want := [][]int{{1, 10, 100}, {1, 10, 101}, {3, 30, 300}}
	if !reflect.DeepEqual(out.tuples, want) {
		t.Fatalf("tuples = %v", out.tuples)
	}
}

func TestHashJoinCartesian(t *testing.T) {
	a := tableFromSpec(core.AtomSpec{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {2}}})
	b := tableFromSpec(core.AtomSpec{Name: "S", Attrs: []string{"B"}, Tuples: [][]int{{7}, {8}}})
	out := HashJoin(a, b, nil)
	if len(out.tuples) != 4 {
		t.Fatalf("cartesian size = %d", len(out.tuples))
	}
}

func TestSortMergeMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		mk := func(attrs []string) *table {
			n := rng.Intn(20)
			var tuples [][]int
			for i := 0; i < n; i++ {
				tup := make([]int, len(attrs))
				for j := range tup {
					tup[j] = rng.Intn(5)
				}
				tuples = append(tuples, tup)
			}
			return tableFromSpec(core.AtomSpec{Name: "X", Attrs: attrs, Tuples: tuples})
		}
		a := mk([]string{"A", "B"})
		b := mk([]string{"B", "C"})
		h := HashJoin(a, b, nil)
		m := SortMergeJoin(a, b, nil)
		SortTuples(h.tuples)
		SortTuples(m.tuples)
		if !reflect.DeepEqual(h.tuples, m.tuples) {
			t.Fatalf("trial %d: hash %v vs merge %v", trial, h.tuples, m.tuples)
		}
	}
}

func TestLeftDeepHashJoin(t *testing.T) {
	gao := []string{"A", "B", "C"}
	atoms := []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: [][]int{{1, 2}, {3, 4}}},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: [][]int{{2, 5}, {2, 6}, {4, 7}}},
	}
	got, err := LeftDeepHashJoin(gao, atoms, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 2, 5}, {1, 2, 6}, {3, 4, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

// queryShape describes a test query for the cross-engine comparison.
type queryShape struct {
	name  string
	gao   []string
	atoms [][]string
	alpha bool // α-acyclic → Yannakakis applicable
}

var shapes = []queryShape{
	{"twopath", []string{"A", "B", "C"}, [][]string{{"A", "B"}, {"B", "C"}}, true},
	{"bowtie", []string{"A", "B"}, [][]string{{"A"}, {"A", "B"}, {"B"}}, true},
	{"triangle", []string{"A", "B", "C"}, [][]string{{"A", "B"}, {"B", "C"}, {"A", "C"}}, false},
	{"path4", []string{"A", "B", "C", "D"}, [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}}, true},
	{"star", []string{"A", "B", "C", "D"}, [][]string{{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B"}}, true},
	{"clique4", []string{"A", "B", "C", "D"}, [][]string{
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "C"}, {"B", "D"}, {"C", "D"}}, false},
}

// TestAllEnginesAgree drives every engine on random instances of every
// shape and requires identical outputs: LeftDeepHashJoin is the oracle;
// Leapfrog, NPRR, Minesweeper and (for α-acyclic shapes) Yannakakis must
// match it.
func TestAllEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, shape := range shapes {
		for trial := 0; trial < 10; trial++ {
			dom := 2 + rng.Intn(4)
			var atoms []core.AtomSpec
			for ai, attrs := range shape.atoms {
				cnt := rng.Intn(15)
				var tuples [][]int
				for i := 0; i < cnt; i++ {
					tup := make([]int, len(attrs))
					for j := range tup {
						tup[j] = rng.Intn(dom)
					}
					tuples = append(tuples, tup)
				}
				atoms = append(atoms, core.AtomSpec{
					Name: shape.name + string(rune('R'+ai)), Attrs: attrs, Tuples: tuples})
			}
			want, err := LeftDeepHashJoin(shape.gao, atoms, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := specsFor(t, shape.gao, atoms)
			p.Debug = true

			lf, err := LeapfrogAll(p, nil)
			if err != nil {
				t.Fatalf("%s/%d leapfrog: %v", shape.name, trial, err)
			}
			if !reflect.DeepEqual(lf, want) {
				t.Fatalf("%s/%d: leapfrog %v want %v", shape.name, trial, lf, want)
			}

			np, err := NPRRAll(p, nil)
			if err != nil {
				t.Fatalf("%s/%d nprr: %v", shape.name, trial, err)
			}
			if !reflect.DeepEqual(np, want) {
				t.Fatalf("%s/%d: nprr %v want %v", shape.name, trial, np, want)
			}

			ms, err := core.MinesweeperAll(p, nil)
			if err != nil {
				t.Fatalf("%s/%d minesweeper: %v", shape.name, trial, err)
			}
			SortTuples(ms)
			if !reflect.DeepEqual(ms, want) {
				t.Fatalf("%s/%d: minesweeper %v want %v", shape.name, trial, ms, want)
			}

			if shape.alpha {
				ya, err := Yannakakis(shape.gao, atoms, nil)
				if err != nil {
					t.Fatalf("%s/%d yannakakis: %v", shape.name, trial, err)
				}
				if !reflect.DeepEqual(ya, want) {
					t.Fatalf("%s/%d: yannakakis %v want %v", shape.name, trial, ya, want)
				}
			}
		}
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	atoms := []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"B", "C"}},
		{Name: "T", Attrs: []string{"A", "C"}},
	}
	if _, err := Yannakakis([]string{"A", "B", "C"}, atoms, nil); err == nil {
		t.Fatal("triangle must be rejected")
	}
}

func TestYannakakisSingleAtom(t *testing.T) {
	atoms := []core.AtomSpec{
		{Name: "R", Attrs: []string{"B", "A"}, Tuples: [][]int{{1, 2}, {3, 4}}},
	}
	got, err := Yannakakis([]string{"A", "B"}, atoms, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{2, 1}, {4, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestYannakakisSemijoinCounts(t *testing.T) {
	// Yannakakis must touch Ω(N) tuples even when the certificate is O(1):
	// the Appendix J phenomenon in miniature.
	const n = 500
	var r, s [][]int
	for i := 0; i < n; i++ {
		r = append(r, []int{i, 2 * i})
		s = append(s, []int{2*i + 1, i})
	}
	atoms := []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
	}
	var stats certificate.Stats
	out, err := Yannakakis([]string{"A", "B", "C"}, atoms, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("expected empty output, got %d", len(out))
	}
	if stats.Comparisons < n {
		t.Fatalf("comparisons = %d; semijoin should scan Ω(N)", stats.Comparisons)
	}
}

func TestLeapfrogSeekStats(t *testing.T) {
	atoms := []core.AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: [][]int{{1}, {5}, {9}}},
		{Name: "S", Attrs: []string{"A"}, Tuples: [][]int{{2}, {5}, {8}}},
	}
	p := specsFor(t, []string{"A"}, atoms)
	var stats certificate.Stats
	out, err := LeapfrogAll(p, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, [][]int{{5}}) {
		t.Fatalf("out = %v", out)
	}
	if stats.FindGaps == 0 {
		t.Fatal("seeks not counted")
	}
	if stats.Outputs != 1 {
		t.Fatalf("Outputs = %d", stats.Outputs)
	}
}
