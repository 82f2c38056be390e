package minesweeper

import (
	"math/rand"
	"reflect"
	"testing"

	"minesweeper/internal/reltree"
)

// sparseSkewRelations builds a deterministic skewed pair over a sparse,
// strided domain: R small, S large, sharing attribute b with partial
// overlap and one heavy b value. This is the regime where the planner
// overrides the structural order and DictAuto kicks in.
func sparseSkewRelations(t *testing.T, seed int64, nBig, nSmall int) (*Relation, *Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const stride = 9973
	var sT [][]int
	for i := 0; i < nBig; i++ {
		b := i * stride
		if rng.Intn(4) == 0 {
			b = 77 * stride // heavy value
		}
		sT = append(sT, []int{b, rng.Intn(nBig) * stride})
	}
	var rT [][]int
	for j := 0; j < nSmall; j++ {
		b := (j*17 + 3) * stride // mostly misses S
		if j%4 == 0 {
			b = j * 17 * stride // sometimes hits
		}
		if j == 1 {
			b = 77 * stride // join the heavy value too
		}
		rT = append(rT, []int{j * stride, b})
	}
	r := rel(t, "R", 2, rT)
	s := rel(t, "S", 2, sT)
	return r, s
}

// TestPlannedGAOEngineEquivalence runs the planned (data-aware) path
// across all five engines, sequential and parallel, under every
// dictionary mode, over plain and shaped (select/where/aggregate)
// executions, and demands identical results. The planner is
// deterministic, so every run shares one GAO and the comparison is
// exact including emission order.
func TestPlannedGAOEngineEquivalence(t *testing.T) {
	for _, shape := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"select", Options{Select: []string{"c", "a"}}},
		{"where", Options{Where: []Filter{{Var: "b", Op: "<", Value: 400 * 9973}}}},
		{"aggregate", Options{Select: []string{"a"}, Aggregates: []Aggregate{{Op: AggCount}, {Op: AggMax, Var: "c"}}}},
		{"constant+where", Options{Where: []Filter{{Var: "a", Op: ">=", Value: 9973}}}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			r, s := sparseSkewRelations(t, 11, 400, 24)
			q, err := NewQuery(
				Atom{Rel: r, Vars: []string{"a", "b"}},
				Atom{Rel: s, Vars: []string{"b", "c"}},
			)
			if err != nil {
				t.Fatal(err)
			}
			var ref *Result
			for _, dict := range []DictMode{DictAuto, DictOff, DictOn} {
				for _, eng := range allEngines {
					for _, workers := range []int{1, 4} {
						if workers > 1 && eng != EngineMinesweeper && eng != EngineLeapfrog {
							continue
						}
						opts := shape.opts
						opts.Engine = eng
						opts.Workers = workers
						opts.Dict = dict
						res, err := Execute(q, &opts)
						if err != nil {
							t.Fatalf("dict=%v engine=%v workers=%d: %v", dict, eng, workers, err)
						}
						if ref == nil {
							ref = res
							if len(res.Tuples) == 0 {
								t.Fatal("equivalence fixture produced an empty result; join must be non-empty")
							}
							continue
						}
						if !reflect.DeepEqual(res.Vars, ref.Vars) {
							t.Fatalf("dict=%v engine=%v workers=%d: vars %v != %v", dict, eng, workers, res.Vars, ref.Vars)
						}
						if !reflect.DeepEqual(res.Tuples, ref.Tuples) {
							t.Fatalf("dict=%v engine=%v workers=%d: %d tuples != %d reference tuples (first diff: %v vs %v)",
								dict, eng, workers, len(res.Tuples), len(ref.Tuples), firstDiff(res.Tuples, ref.Tuples), "")
						}
					}
				}
			}
		})
	}
}

func firstDiff(a, b [][]int) [][]int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return [][]int{a[i], b[i]}
		}
	}
	return nil
}

// TestAutoDictActivatesOnSparseDomains pins the auto gate: the sparse
// fixture must actually be dictionary-encoded under DictAuto (otherwise
// the equivalence suite exercises nothing), while small dense data must
// not be.
func TestAutoDictActivatesOnSparseDomains(t *testing.T) {
	r, s := sparseSkewRelations(t, 3, 400, 24)
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"a", "b"}},
		Atom{Rel: s, Vars: []string{"b", "c"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := q.Explain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.DictAttrs) == 0 {
		t.Fatalf("sparse fixture not dictionary-encoded: %+v", ex)
	}
	if ex.EstCost <= 0 {
		t.Fatalf("explain must carry a cost estimate: %+v", ex)
	}

	dense := rel(t, "D", 2, [][]int{{1, 2}, {2, 3}, {3, 4}})
	dq, err := NewQuery(Atom{Rel: dense, Vars: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	dex, err := dq.Explain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dex.DictAttrs) != 0 {
		t.Fatalf("dense fixture must stay raw: %+v", dex)
	}
}

// TestPreparedReplansAfterMutation: a prepared query bound to small
// data re-plans when the data changes shape. The fixture starts with R
// tiny and S tiny; S then grows huge and sparse, which must (a) serve
// correct fresh results through the already-prepared query on every
// engine, and (b) refresh the reported plan (the planner sees the new
// statistics).
func TestPreparedReplansAfterMutation(t *testing.T) {
	const stride = 10007
	rT := [][]int{{1 * stride, 5 * stride}, {2 * stride, 6 * stride}}
	var sT [][]int
	for j := 0; j < 4; j++ {
		sT = append(sT, []int{(5 + j) * stride, j * stride})
	}
	r := rel(t, "R", 2, rT)
	s := rel(t, "S", 2, sT)
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"a", "b"}},
		Atom{Rel: s, Vars: []string{"b", "c"}},
	)
	if err != nil {
		t.Fatal(err)
	}

	var pqs []*PreparedQuery
	for _, eng := range allEngines {
		pq, err := q.Prepare(&Options{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		pqs = append(pqs, pq)
	}
	before, err := pqs[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Tuples) == 0 {
		t.Fatal("pre-mutation join empty")
	}

	// S grows by four orders of magnitude; most new B values miss R.
	var grown [][]int
	for j := 0; j < 20000; j++ {
		grown = append(grown, []int{(j*13 + 1) * stride, j * stride})
	}
	grown = append(grown, sT...) // keep the original matches
	if err := s.Replace(grown); err != nil {
		t.Fatal(err)
	}

	var ref *Result
	for i, pq := range pqs {
		res, err := pq.Execute()
		if err != nil {
			t.Fatalf("%v after mutation: %v", allEngines[i], err)
		}
		if ref == nil {
			ref = res
			if len(res.Tuples) != len(before.Tuples) {
				t.Fatalf("post-mutation result has %d tuples, want the original %d matches", len(res.Tuples), len(before.Tuples))
			}
			continue
		}
		if !reflect.DeepEqual(res.Tuples, ref.Tuples) {
			t.Fatalf("%v after mutation: tuples diverge from reference", allEngines[i])
		}
	}
	// The minesweeper variant must have re-planned against the new
	// statistics: huge sparse S flips the auto dictionary on.
	ex := pqs[0].Explain()
	if len(ex.DictAttrs) == 0 {
		t.Fatalf("plan not refreshed after mutation: %+v", ex)
	}

	// A forced GAO survives re-binding verbatim.
	forced, err := q.Prepare(&Options{GAO: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := forced.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]int{999999 * 13 * stride, 999999}); err != nil {
		t.Fatal(err)
	}
	if _, err := forced.Execute(); err != nil {
		t.Fatal(err)
	}
	if got := forced.GAO(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("forced GAO changed across mutation: %v", got)
	}
	if forced.Explain().Planned {
		t.Fatal("forced GAO must not be marked planned")
	}
}

// TestPreparedShapeSurvivesReplan: pushed-down constants and filters
// carry across a re-plan (the PR 4 behaviours on the new pipeline).
func TestPreparedShapeSurvivesReplan(t *testing.T) {
	const stride = 10007
	var rT [][]int
	for i := 0; i < 50; i++ {
		rT = append(rT, []int{i * stride, (i % 7) * stride})
	}
	r := rel(t, "R", 2, rT)
	q, err := NewQuery(Atom{Rel: r, Vars: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(&Options{Where: []Filter{{Var: "a", Op: "<", Value: 10 * stride}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 10 {
		t.Fatalf("filtered result = %d tuples, want 10", len(res.Tuples))
	}
	if err := r.Insert([]int{3*stride + 1, 0}); err != nil { // inside the filter range
		t.Fatal(err)
	}
	res, err = pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 11 {
		t.Fatalf("post-mutation filtered result = %d tuples, want 11", len(res.Tuples))
	}
	for _, tup := range res.Tuples {
		if tup[0] >= 10*stride {
			t.Fatalf("filter violated after re-plan: %v", tup)
		}
	}
}

// TestDictRebindReusesUntouchedIndexes: on a re-plan triggered by
// mutating one relation, dictionaries whose participating relations
// are unmutated — and the encoded trees built under them — are reused,
// not rebuilt. G shares no attribute with the mutated E/F pair, so its
// (huge) encoded index must survive the re-bind.
func TestDictRebindReusesUntouchedIndexes(t *testing.T) {
	const stride = 10007
	var gT [][]int
	for i := 0; i < 5000; i++ {
		gT = append(gT, []int{i * stride, i*stride + 1})
	}
	g := rel(t, "G", 2, gT)
	var eT, fT [][]int
	for i := 0; i < 300; i++ {
		eT = append(eT, []int{i * stride, (i % 40) * stride})
	}
	for j := 0; j < 40; j++ {
		fT = append(fT, []int{j * stride, j})
	}
	e := rel(t, "E", 2, eT)
	f := rel(t, "F", 2, fT)
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"a", "b"}},
		Atom{Rel: f, Vars: []string{"b", "c"}},
		Atom{Rel: g, Vars: []string{"d", "x"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(&Options{Dict: DictOn})
	if err != nil {
		t.Fatal(err)
	}
	before, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}

	builds0 := reltree.Builds()
	if err := f.Insert([]int{7*stride + 1, 999}); err != nil { // misses E: join unchanged
		t.Fatal(err)
	}
	after, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := reltree.Builds() - builds0
	// F mutated: F rebuilds; the shared b/c dictionaries changed, so E
	// (sharing b) rebuilds too. G shares nothing with F and must be
	// reused — so strictly fewer builds than the full three atoms.
	if rebuilt > 2 {
		t.Fatalf("re-bind rebuilt %d indexes; G's untouched index must be reused", rebuilt)
	}
	if rebuilt < 1 {
		t.Fatalf("re-bind rebuilt %d indexes; the mutated F must rebuild", rebuilt)
	}
	if len(after.Tuples) != len(before.Tuples) {
		t.Fatalf("join changed: %d -> %d tuples", len(before.Tuples), len(after.Tuples))
	}
}
