package minesweeper

import (
	"reflect"
	"sort"
	"testing"

	"minesweeper/internal/dataset"
)

// The E13 dict+box interaction suite: the clustered workloads are
// exactly where the box-cover CDS and the dictionary machinery overlap
// (boxes span the trailing attributes the dictionaries re-code), so
// every engine, dictionary mode and worker count must agree tuple for
// tuple — including after a mutation forces a prepared re-plan.

// assertGAOLex fails unless the tuples are sorted GAO-lexicographically:
// tuples are emitted in evaluation order, so the columns are compared in
// GAO order, located through the output Vars.
func assertGAOLex(t *testing.T, res *Result) {
	t.Helper()
	pos := make([]int, 0, len(res.GAO))
	for _, g := range res.GAO {
		for j, v := range res.Vars {
			if v == g {
				pos = append(pos, j)
				break
			}
		}
	}
	less := func(a, b []int) bool {
		for _, j := range pos {
			if a[j] != b[j] {
				return a[j] < b[j]
			}
		}
		return false
	}
	for i := 1; i < len(res.Tuples); i++ {
		if less(res.Tuples[i], res.Tuples[i-1]) {
			t.Fatalf("tuples not GAO-lex sorted at %d: %v after %v (gao=%v vars=%v)",
				i, res.Tuples[i], res.Tuples[i-1], res.GAO, res.Vars)
		}
	}
}

// TestClusteredEngineEquivalence runs the E13 shapes across every
// engine, dictionary mode and worker count and demands identical
// results in identical GAO-lex order, then mutates a relation and
// re-executes the prepared variants to cover the re-plan path.
func TestClusteredEngineEquivalence(t *testing.T) {
	shapes := []struct {
		name string
		data func() (r, s [][]int)
		want int // expected output count before mutation
	}{
		{"band", func() ([][]int, [][]int) { return dataset.ClusteredBandJoin(3, 24) }, 0},
		{"overlap", func() ([][]int, [][]int) { return dataset.ClusteredOverlapJoin(3, 24, 6) }, 3 * 4},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rT, sT := shape.data()
			r := rel(t, "R", 2, rT)
			s := rel(t, "S", 2, sT)
			q, err := NewQuery(
				Atom{Rel: r, Vars: []string{"x", "y"}},
				Atom{Rel: s, Vars: []string{"x", "y"}},
			)
			if err != nil {
				t.Fatal(err)
			}

			type variant struct {
				dict    DictMode
				eng     Engine
				workers int
			}
			var variants []variant
			for _, dict := range []DictMode{DictAuto, DictOff, DictOn} {
				for _, eng := range allEngines {
					for _, workers := range []int{1, 4} {
						if workers > 1 && eng != EngineMinesweeper && eng != EngineLeapfrog {
							continue
						}
						variants = append(variants, variant{dict, eng, workers})
					}
				}
			}
			pqs := make([]*PreparedQuery, len(variants))
			for i, v := range variants {
				pq, err := q.Prepare(&Options{Engine: v.eng, Workers: v.workers, Dict: v.dict})
				if err != nil {
					t.Fatalf("dict=%v engine=%v workers=%d: %v", v.dict, v.eng, v.workers, err)
				}
				pqs[i] = pq
			}

			check := func(stage string, want int) {
				t.Helper()
				var ref *Result
				for i, v := range variants {
					res, err := pqs[i].Execute()
					if err != nil {
						t.Fatalf("%s dict=%v engine=%v workers=%d: %v", stage, v.dict, v.eng, v.workers, err)
					}
					if len(res.Tuples) != want {
						t.Fatalf("%s dict=%v engine=%v workers=%d: %d tuples, want %d",
							stage, v.dict, v.eng, v.workers, len(res.Tuples), want)
					}
					assertGAOLex(t, res)
					if ref == nil {
						ref = res
						continue
					}
					if !reflect.DeepEqual(res.Vars, ref.Vars) {
						t.Fatalf("%s dict=%v engine=%v workers=%d: vars %v != %v",
							stage, v.dict, v.eng, v.workers, res.Vars, ref.Vars)
					}
					if !reflect.DeepEqual(res.Tuples, ref.Tuples) {
						t.Fatalf("%s dict=%v engine=%v workers=%d: tuples diverge (first diff %v)",
							stage, v.dict, v.eng, v.workers, firstDiff(res.Tuples, ref.Tuples))
					}
				}
			}
			check("initial", shape.want)

			// Mutate into the overlap band: both relations gain one shared
			// (x, y) pair in a fresh cluster, so every prepared variant must
			// re-plan and agree on exactly one more output tuple.
			const newX = 50 << 16
			if err := r.Insert([]int{newX, 5}); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert([]int{newX, 5}); err != nil {
				t.Fatal(err)
			}
			check("after mutation", shape.want+1)
		})
	}
}

// TestClusteredBoxStatsSurface: the public Stats of an E13 run report
// the box-cover activity (Boxes stored, BoxSkips served), sequential
// and parallel — the /stats and msbench instrumentation rides on these
// fields.
func TestClusteredBoxStatsSurface(t *testing.T) {
	rT, sT := dataset.ClusteredBandJoin(3, 48)
	r := rel(t, "R", 2, rT)
	s := rel(t, "S", 2, sT)
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"x", "y"}},
		Atom{Rel: s, Vars: []string{"x", "y"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the clustered x-first order: the data-aware planner would put
	// the two-value y attribute first and empty the join from the bands
	// alone, which is clever but not what this test measures.
	for _, workers := range []int{1, 4} {
		res, err := Execute(q, &Options{GAO: []string{"x", "y"}, Workers: workers, Dict: DictOff})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 0 {
			t.Fatalf("workers=%d: band join must be empty, got %d tuples", workers, len(res.Tuples))
		}
		if res.Stats.Boxes == 0 || res.Stats.BoxSkips == 0 {
			t.Fatalf("workers=%d: box stats not surfaced: Boxes=%d BoxSkips=%d",
				workers, res.Stats.Boxes, res.Stats.BoxSkips)
		}
	}
}

// TestClusteredOverlapOutputsSorted doubles as a direct probe of the
// GAO-lex contract on a non-trivial E13 result set: the overlap rows
// must come out strictly increasing in (x, y).
func TestClusteredOverlapOutputsSorted(t *testing.T) {
	rT, sT := dataset.ClusteredOverlapJoin(4, 16, 4)
	r := rel(t, "R", 2, rT)
	s := rel(t, "S", 2, sT)
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"x", "y"}},
		Atom{Rel: s, Vars: []string{"x", "y"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatal("overlap join must be non-empty")
	}
	if !sort.SliceIsSorted(res.Tuples, func(i, j int) bool {
		a, b := res.Tuples[i], res.Tuples[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	}) {
		t.Fatalf("overlap outputs not sorted: %v", res.Tuples)
	}
}
