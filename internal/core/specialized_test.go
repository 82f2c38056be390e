package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"minesweeper/internal/certificate"
)

// The set intersection of Appendix H and the bow-tie of Appendix I are
// β-acyclic queries, so the general engine evaluates them with the
// special cases' probe bounds; these tests run it on their instances.

// unaryAtom is the atom name(attr) over a set's values.
func unaryAtom(name, attr string, vals []int) AtomSpec {
	tuples := make([][]int, len(vals))
	for i := range vals {
		tuples[i] = vals[i : i+1]
	}
	return AtomSpec{Name: name, Attrs: []string{attr}, Tuples: tuples}
}

// intersectAll evaluates S1(A) ⋈ … ⋈ Sm(A) with the general engine.
func intersectAll(sets [][]int, stats *certificate.Stats) ([]int, error) {
	atoms := make([]AtomSpec, len(sets))
	for i, s := range sets {
		atoms[i] = unaryAtom(fmt.Sprintf("S%d", i+1), "A", s)
	}
	p, err := NewProblem([]string{"A"}, atoms)
	if err != nil {
		return nil, err
	}
	tuples, err := MinesweeperAll(p, stats)
	var out []int
	for _, t := range tuples {
		out = append(out, t[0])
	}
	return out, err
}

// bowtieAll evaluates R(X) ⋈ S(X,Y) ⋈ T(Y) with the general engine
// under the GAO [X Y].
func bowtieAll(r []int, s [][]int, t []int, stats *certificate.Stats) ([][]int, error) {
	p, err := NewProblem([]string{"X", "Y"}, []AtomSpec{
		unaryAtom("R", "X", r),
		{Name: "S", Attrs: []string{"X", "Y"}, Tuples: s},
		unaryAtom("T", "Y", t),
	})
	if err != nil {
		return nil, err
	}
	return MinesweeperAll(p, stats)
}

func refIntersect(sets [][]int) []int {
	if len(sets) == 0 {
		return nil
	}
	count := map[int]map[int]bool{}
	for i, s := range sets {
		for _, v := range s {
			if count[v] == nil {
				count[v] = map[int]bool{}
			}
			count[v][i] = true
		}
	}
	var out []int
	for v, in := range count {
		if len(in) == len(sets) {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func TestIntersectBasic(t *testing.T) {
	got, err := intersectAll([][]int{{1, 3, 5, 7}, {3, 4, 5}, {5, 3, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestIntersectSingleSet(t *testing.T) {
	got, err := intersectAll([][]int{{4, 2, 2, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 4, 9}) {
		t.Fatalf("got %v", got)
	}
}

func TestIntersectEmptyArgs(t *testing.T) {
	if _, err := intersectAll(nil, nil); err == nil {
		t.Fatal("no sets must error")
	}
	got, err := intersectAll([][]int{{1, 2}, {}}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestIntersectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(4)
		sets := make([][]int, m)
		for i := range sets {
			n := rng.Intn(30)
			for j := 0; j < n; j++ {
				sets[i] = append(sets[i], rng.Intn(20))
			}
		}
		got, err := intersectAll(sets, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refIntersect(sets)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sets=%v got %v want %v", trial, sets, got, want)
		}
	}
}

// TestIntersectAdaptivity: Example B.1-style instance — disjoint ranges
// have an O(1) certificate; probe count must not scale with N.
func TestIntersectAdaptivity(t *testing.T) {
	const n = 10000
	s1 := make([]int, n)
	s2 := make([]int, n)
	for i := 0; i < n; i++ {
		s1[i] = i
		s2[i] = n + i
	}
	var stats certificate.Stats
	got, err := intersectAll([][]int{s1, s2}, &stats)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	if stats.ProbePoints > 4 {
		t.Fatalf("ProbePoints = %d, want O(1)", stats.ProbePoints)
	}
	// Interleaved instance: certificate is Θ(N); probes scale accordingly.
	for i := 0; i < n; i++ {
		s1[i] = 2 * i
		s2[i] = 2*i + 1
	}
	stats = certificate.Stats{}
	if _, err := intersectAll([][]int{s1, s2}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ProbePoints < n/2 {
		t.Fatalf("interleaved instance should need Ω(N) probes, got %d", stats.ProbePoints)
	}
}

func refBowtie(r []int, s [][]int, t []int) [][]int {
	rs, ts := map[int]bool{}, map[int]bool{}
	for _, v := range r {
		rs[v] = true
	}
	for _, v := range t {
		ts[v] = true
	}
	seen := map[[2]int]bool{}
	var out [][]int
	for _, p := range s {
		k := [2]int{p[0], p[1]}
		if rs[p[0]] && ts[p[1]] && !seen[k] {
			seen[k] = true
			out = append(out, []int{p[0], p[1]})
		}
	}
	sortTuples(out)
	return out
}

func TestBowtieBasic(t *testing.T) {
	r := []int{1, 2, 5}
	s := [][]int{{1, 10}, {1, 20}, {2, 10}, {3, 30}, {5, 20}}
	ty := []int{10, 20, 40}
	got, err := bowtieAll(r, s, ty, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(got)
	want := refBowtie(r, s, ty)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestBowtieEmpty(t *testing.T) {
	got, err := bowtieAll(nil, nil, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	got, err = bowtieAll([]int{1}, [][]int{{1, 2}}, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestBowtieRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		dom := 1 + rng.Intn(8)
		mk := func() []int {
			var out []int
			for i := 0; i < rng.Intn(10); i++ {
				out = append(out, rng.Intn(dom))
			}
			return out
		}
		var s [][]int
		for i := 0; i < rng.Intn(20); i++ {
			s = append(s, []int{rng.Intn(dom), rng.Intn(dom)})
		}
		r, ty := mk(), mk()
		got, err := bowtieAll(r, s, ty, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sortTuples(got)
		want := refBowtie(r, s, ty)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: r=%v s=%v t=%v got %v want %v", trial, r, s, ty, got, want)
		}
	}
}

// TestBowtieHiddenGapInstance replays the instance after Algorithm 9 that
// motivates exploring both S-branches: R={2}, T={N+1},
// S = {(1, N+1+i)} ∪ {(3, i)}.
func TestBowtieHiddenGapInstance(t *testing.T) {
	const n = 200
	var s [][]int
	for i := 1; i <= n; i++ {
		s = append(s, []int{1, n + 1 + i}, []int{3, i})
	}
	var stats certificate.Stats
	got, err := bowtieAll([]int{2}, s, []int{n + 1}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty output, got %v", got)
	}
	if stats.ProbePoints > 8 {
		t.Fatalf("ProbePoints = %d; certificate here is O(1)", stats.ProbePoints)
	}
}

func refTriangle(r, s, t [][]int) [][]int {
	rm, sm, tm := map[[2]int]bool{}, map[[2]int]bool{}, map[[2]int]bool{}
	for _, p := range r {
		rm[[2]int{p[0], p[1]}] = true
	}
	for _, p := range s {
		sm[[2]int{p[0], p[1]}] = true
	}
	for _, p := range t {
		tm[[2]int{p[0], p[1]}] = true
	}
	seen := map[[3]int]bool{}
	var out [][]int
	for ab := range rm {
		for bc := range sm {
			if ab[1] != bc[0] {
				continue
			}
			if tm[[2]int{ab[0], bc[1]}] {
				k := [3]int{ab[0], ab[1], bc[1]}
				if !seen[k] {
					seen[k] = true
					out = append(out, []int{k[0], k[1], k[2]})
				}
			}
		}
	}
	sortTuples(out)
	return out
}

func TestTriangleBasic(t *testing.T) {
	edges := [][]int{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {2, 4}}
	sym := func(es [][]int) [][]int {
		var out [][]int
		for _, e := range es {
			out = append(out, []int{e[0], e[1]}, []int{e[1], e[0]})
		}
		return out
	}
	r, s, ty := sym(edges), sym(edges), sym(edges)
	got, err := Triangle(r, s, ty, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(got)
	want := refTriangle(r, s, ty)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("graph has triangles")
	}
}

func TestTriangleEmpty(t *testing.T) {
	got, err := Triangle(nil, nil, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	got, err = Triangle([][]int{{1, 2}}, [][]int{{2, 3}}, nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestTriangleRandom cross-checks the dyadic-CDS triangle engine against
// the brute-force reference and against generic Minesweeper.
func TestTriangleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		dom := 2 + rng.Intn(6)
		mk := func() [][]int {
			var out [][]int
			for i := 0; i < rng.Intn(25); i++ {
				out = append(out, []int{rng.Intn(dom), rng.Intn(dom)})
			}
			return out
		}
		r, s, ty := mk(), mk(), mk()
		got, err := Triangle(r, s, ty, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sortTuples(got)
		want := refTriangle(r, s, ty)
		if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\nr=%v\ns=%v\nt=%v\ngot  %v\nwant %v", trial, r, s, ty, got, want)
		}
		// Generic engine agreement.
		p, err := NewProblem([]string{"A", "B", "C"}, []AtomSpec{
			{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
			{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
			{Name: "T", Attrs: []string{"A", "C"}, Tuples: ty},
		})
		if err != nil {
			t.Fatal(err)
		}
		generic, err := MinesweeperAll(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sortTuples(generic)
		if !(len(generic) == 0 && len(want) == 0) && !reflect.DeepEqual(generic, want) {
			t.Fatalf("trial %d: generic engine diverges: %v want %v", trial, generic, want)
		}
	}
}

// TestTrianglePairsHardInstance builds the instance class where the
// generic CDS wastes Ω(|C|²) (a,b)-pair explorations while the dyadic CDS
// explores O(|C|) of them: R = [n]×[n] (all pairs), S = [n]×{n+1..},
// T = ∅-ish so output is empty but A×B space is large.
func TestTrianglePairsHardInstance(t *testing.T) {
	const n = 25
	var r, s, ty [][]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r = append(r, []int{i, j})
		}
		s = append(s, []int{i, n + 1 + i})
		ty = append(ty, []int{i, n + 100 + i})
	}
	var specialStats, genericStats certificate.Stats
	got, err := Triangle(r, s, ty, &specialStats)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
	p, err := NewProblem([]string{"A", "B", "C"}, []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: ty},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := MinesweeperAll(p, &genericStats)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen) != 0 {
		t.Fatal("generic disagrees")
	}
	// The specialized engine must issue far fewer probes on this family.
	if specialStats.ProbePoints*2 > genericStats.ProbePoints {
		t.Logf("special=%d generic=%d", specialStats.ProbePoints, genericStats.ProbePoints)
	}
}

func TestTriangleSelfLoopGraph(t *testing.T) {
	// Self-loops and one real triangle.
	edges := [][]int{{0, 0}, {1, 2}, {2, 3}, {1, 3}}
	got, err := Triangle(edges, edges, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(got)
	want := refTriangle(edges, edges, edges)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMinesweeperStreamEarlyStop(t *testing.T) {
	var tuples [][]int
	for i := 0; i < 50; i++ {
		tuples = append(tuples, []int{i})
	}
	p := mustProblem(t, []string{"A"}, []AtomSpec{
		{Name: "R", Attrs: []string{"A"}, Tuples: tuples},
		{Name: "S", Attrs: []string{"A"}, Tuples: tuples},
	})
	var got [][]int
	var stats certificate.Stats
	err := MinesweeperStreamContext(context.Background(), p, &stats, func(t []int) bool {
		got = append(got, t)
		return len(got) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("stream yielded %d tuples, want 3", len(got))
	}
	if stats.ProbePoints > 10 {
		t.Fatalf("early stop still probed %d times", stats.ProbePoints)
	}
}
