package minesweeper

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// freqSkewRelations builds a pair whose shared attribute b is dominated
// by one heavy value (half of S) scattered among sparse strided values —
// the regime where the planner's skew sketch marks b for a
// frequency-permuted domain under DomainFreq.
func freqSkewRelations(t *testing.T) (*Relation, *Relation) {
	t.Helper()
	const stride = 9973
	const heavy = 321 * stride
	var sT [][]int
	for i := 0; i < 400; i++ {
		b := i * stride
		if i%2 == 0 {
			b = heavy
		}
		sT = append(sT, []int{b, i * stride})
	}
	var rT [][]int
	for j := 0; j < 30; j++ {
		b := (j*31 + 5) * stride
		if j%5 == 0 {
			b = heavy // join the heavy value
		}
		if j%7 == 0 {
			b = (j * 2) * stride // some light matches too
		}
		rT = append(rT, []int{j * stride, b})
	}
	return rel(t, "R", 2, rT), rel(t, "S", 2, sT)
}

func freqSkewQuery(t *testing.T) *Query {
	t.Helper()
	r, s := freqSkewRelations(t)
	q, err := NewQuery(
		Atom{Rel: r, Vars: []string{"a", "b"}},
		Atom{Rel: s, Vars: []string{"b", "c"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// hasOrder reports whether the DictOrders list carries the given entry.
func hasOrder(orders []string, entry string) bool {
	for _, o := range orders {
		if o == entry {
			return true
		}
	}
	return false
}

// TestFreqDomainExplainReportsOrders: the plan reports, per encoded
// attribute, the domain ordering its code space follows — rank by
// default, freq for skew-qualified attributes under DomainFreq, and
// rank again when a pushed-down bound pins the position (a permuted
// code space would forfeit the pushdown).
func TestFreqDomainExplainReportsOrders(t *testing.T) {
	q := freqSkewQuery(t)

	ex, err := q.Explain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.DictAttrs) == 0 {
		t.Fatalf("skewed fixture must dictionary-encode something: %+v", ex)
	}
	if len(ex.DictOrders) != len(ex.DictAttrs) {
		t.Fatalf("DictOrders %v must parallel DictAttrs %v", ex.DictOrders, ex.DictAttrs)
	}
	for _, o := range ex.DictOrders {
		if !strings.HasSuffix(o, ":rank") {
			t.Fatalf("natural domain must report rank orders only: %v", ex.DictOrders)
		}
	}

	fex, err := q.Explain(&Options{Domain: DomainFreq})
	if err != nil {
		t.Fatal(err)
	}
	if !hasOrder(fex.DictOrders, "b:freq") {
		t.Fatalf("DomainFreq must permute the skewed attribute b: %v", fex.DictOrders)
	}

	// A range bound on b keeps its dictionary order-preserving so the
	// bound still pushes down into code space.
	bex, err := q.Explain(&Options{Domain: DomainFreq, Where: []Filter{{Var: "b", Op: "<", Value: 400 * 9973}}})
	if err != nil {
		t.Fatal(err)
	}
	if hasOrder(bex.DictOrders, "b:freq") {
		t.Fatalf("bounded attribute must not be frequency-permuted: %v", bex.DictOrders)
	}

	// The prepared query's Explain agrees with the planning-only one.
	pq, err := q.Prepare(&Options{Domain: DomainFreq})
	if err != nil {
		t.Fatal(err)
	}
	pex := pq.Explain()
	if !reflect.DeepEqual(pex.DictOrders, fex.DictOrders) {
		t.Fatalf("prepared DictOrders %v != planned %v", pex.DictOrders, fex.DictOrders)
	}
}

// TestFreqDomainUniformStaysRank: without skew the frequency permutation
// must never kick in, even when explicitly requested — uniform columns
// gain nothing and would lose the order-preserving contract for free.
func TestFreqDomainUniformStaysRank(t *testing.T) {
	const stride = 9973
	var rT, sT [][]int
	for i := 0; i < 200; i++ {
		rT = append(rT, []int{i * stride, i * stride})
		sT = append(sT, []int{i * stride, (i + 1) * stride})
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
	ex, err := q.Explain(&Options{Domain: DomainFreq})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ex.DictOrders {
		if strings.HasSuffix(o, ":freq") {
			t.Fatalf("uniform fixture must not be frequency-permuted: %v", ex.DictOrders)
		}
	}
}

// TestFreqDomainEquivalence: under DomainFreq every engine and worker
// count produces the identical tuple stream (the permuted domain is one
// deterministic total order shared through the encoded indexes), and the
// result SET matches the natural-order run exactly.
func TestFreqDomainEquivalence(t *testing.T) {
	q := freqSkewQuery(t)
	natural, err := Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(natural.Tuples) == 0 {
		t.Fatal("fixture join must be non-empty")
	}

	var ref *Result
	for _, eng := range allEngines {
		for _, workers := range []int{1, 4} {
			if workers > 1 && eng != EngineMinesweeper && eng != EngineLeapfrog {
				continue
			}
			res, err := Execute(q, &Options{Engine: eng, Workers: workers, Domain: DomainFreq})
			if err != nil {
				t.Fatalf("engine=%v workers=%d: %v", eng, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res.Tuples, ref.Tuples) {
				t.Fatalf("engine=%v workers=%d: freq-domain tuples diverge (first diff %v)",
					eng, workers, firstDiff(res.Tuples, ref.Tuples))
			}
		}
	}

	sortTuples := func(in [][]int) [][]int {
		out := append([][]int(nil), in...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		return out
	}
	if !reflect.DeepEqual(sortTuples(ref.Tuples), sortTuples(natural.Tuples)) {
		t.Fatalf("freq-domain result set diverges from natural: %d vs %d tuples",
			len(ref.Tuples), len(natural.Tuples))
	}
}

// TestFreqDomainPreparedSurvivesMutation: a prepared DomainFreq query
// re-plans across mutations like any other — the frequency dictionaries
// are rebuilt from fresh counts and results stay correct.
func TestFreqDomainPreparedSurvivesMutation(t *testing.T) {
	q := freqSkewQuery(t)
	pq, err := q.Prepare(&Options{Domain: DomainFreq})
	if err != nil {
		t.Fatal(err)
	}
	before, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rels := q.Relations()
	// A fresh (a, b) pair joining a fresh (b, c) pair: exactly one new
	// output tuple.
	const stride = 9973
	if err := rels[0].Insert([]int{999 * stride, 777 * stride}); err != nil {
		t.Fatal(err)
	}
	if err := rels[1].Insert([]int{777 * stride, 888 * stride}); err != nil {
		t.Fatal(err)
	}
	after, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tuples) != len(before.Tuples)+1 {
		t.Fatalf("post-mutation result has %d tuples, want %d", len(after.Tuples), len(before.Tuples)+1)
	}
}
