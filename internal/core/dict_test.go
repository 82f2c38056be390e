package core

import (
	"context"
	"reflect"
	"testing"

	"minesweeper/internal/ordered"
)

func TestDictEncodeDecode(t *testing.T) {
	d := NewDict([]int{100, 7, 100, 50}, []int{7, 3000})
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for want, v := range []int{7, 50, 100, 3000} {
		c, ok := d.Encode(v)
		if !ok || c != want {
			t.Fatalf("Encode(%d) = %d, %v; want %d", v, c, ok, want)
		}
		if got := d.Decode(c); got != v {
			t.Fatalf("Decode(%d) = %d, want %d", c, got, v)
		}
	}
	if _, ok := d.Encode(51); ok {
		t.Fatal("Encode(51) should miss")
	}
	if got := d.Decode(-1); got != ordered.NegInf {
		t.Fatalf("Decode(-1) = %d, want NegInf", got)
	}
	if got := d.Decode(4); got != ordered.PosInf {
		t.Fatalf("Decode(4) = %d, want PosInf", got)
	}
	// Bound codes: [8, 99] covers values {50, 100}? No — 100 > 99, so
	// only 50: codes [1, 1].
	if lo, hi := d.LoCode(8), d.HiCode(99); lo != 1 || hi != 1 {
		t.Fatalf("LoCode/HiCode = %d, %d; want 1, 1", lo, hi)
	}
	// An uncovered range encodes empty (Lo > Hi).
	if lo, hi := d.LoCode(51), d.HiCode(99); lo <= hi {
		t.Fatalf("uncovered range gave non-empty codes [%d, %d]", lo, hi)
	}
}

func TestDictSetEncodeTuplesAndBounds(t *testing.T) {
	// GAO positions: 0 encoded, 1 raw.
	d := NewDict([]int{10, 20, 30})
	ds := &DictSet{ByPos: []*Dict{d, nil}}
	if !ds.Any() {
		t.Fatal("Any should be true")
	}
	tuples := [][]int{{10, 5}, {30, 6}}
	ds.EncodeTuples(tuples, []int{0, 1})
	if !reflect.DeepEqual(tuples, [][]int{{0, 5}, {2, 6}}) {
		t.Fatalf("encoded tuples = %v", tuples)
	}
	bounds := ds.EncodeBounds([]Bound{{Lo: 15, Hi: 30}, {Lo: 5, Hi: 6}})
	if bounds[0] != (Bound{Lo: 1, Hi: 2}) {
		t.Fatalf("encoded bound = %+v", bounds[0])
	}
	if bounds[1] != (Bound{Lo: 5, Hi: 6}) {
		t.Fatalf("raw bound changed: %+v", bounds[1])
	}
	tup := []int{1, 42}
	ds.DecodeInPlace(tup)
	if !reflect.DeepEqual(tup, []int{20, 42}) {
		t.Fatalf("decoded = %v", tup)
	}
	var nilSet *DictSet
	if nilSet.Any() {
		t.Fatal("nil DictSet must report Any = false")
	}
}

// TestFreqDictOrdering pins the NewFreqDict code assignment: descending
// occurrence count, ties by ascending value, with a working value→code
// lookup despite the non-monotone code space.
func TestFreqDictOrdering(t *testing.T) {
	// 500 occurs 3×, 7 twice, 90 twice, 42 once.
	d := NewFreqDict([]int{500, 7, 90, 500}, []int{500, 42, 7, 90})
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if !d.Freq() {
		t.Fatal("Freq must report true")
	}
	if d.OrderPreserving() {
		t.Fatal("a permuted code space must not report order-preserving")
	}
	want := []int{500, 7, 90, 42} // count desc, value asc
	for c, v := range want {
		if got := d.Decode(c); got != v {
			t.Fatalf("Decode(%d) = %d, want %d", c, got, v)
		}
		ec, ok := d.Encode(v)
		if !ok || ec != c {
			t.Fatalf("Encode(%d) = %d, %v; want %d", v, ec, ok, c)
		}
	}
	if _, ok := d.Encode(41); ok {
		t.Fatal("Encode(41) should miss")
	}
	if got := d.Decode(-1); got != ordered.NegInf {
		t.Fatalf("Decode(-1) = %d, want NegInf", got)
	}
	if got := d.Decode(4); got != ordered.PosInf {
		t.Fatalf("Decode(4) = %d, want PosInf", got)
	}

	// A frequency ordering that happens to coincide with value order is
	// order-preserving (counts already descending by value).
	mono := NewFreqDict([]int{1, 1, 1, 2, 2, 3})
	if !mono.OrderPreserving() {
		t.Fatal("identity permutation must stay order-preserving")
	}
	if !mono.Freq() {
		t.Fatal("identity-permutation freq dict still reports Freq")
	}
}

// TestFreqDictBoundsFallBackToFull: a non-order-preserving dictionary
// cannot express a value range as one code range, so EncodeBounds must
// widen to the full bound (the shaping net re-checks raw bounds).
func TestFreqDictBoundsFallBackToFull(t *testing.T) {
	d := NewFreqDict([]int{500, 500, 7, 90})
	ds := &DictSet{ByPos: []*Dict{d}}
	bounds := ds.EncodeBounds([]Bound{{Lo: 7, Hi: 90}})
	if !bounds[0].Full() {
		t.Fatalf("non-order-preserving bound = %+v, want full", bounds[0])
	}
}

// TestDictJoinEquivalence runs the same join raw and rank-encoded
// through the core engine and checks the decoded results agree — the
// order-preserving invariant end to end.
func TestDictJoinEquivalence(t *testing.T) {
	gao := []string{"A", "B", "C"}
	r := [][]int{{1000, 7}, {1000, 900007}, {52, 7}, {600000, 42}}
	s := [][]int{{7, 3}, {900007, 1000000000}, {42, 3}}
	rawSpecs := []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
	}
	pRaw, err := NewProblem(gao, rawSpecs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MinesweeperAll(pRaw, nil)
	if err != nil {
		t.Fatal(err)
	}

	col := func(tuples [][]int, j int) []int {
		out := make([]int, len(tuples))
		for i, tup := range tuples {
			out[i] = tup[j]
		}
		return out
	}
	ds := &DictSet{ByPos: []*Dict{
		NewDict(col(r, 0)),
		NewDict(col(r, 1), col(s, 0)),
		NewDict(col(s, 1)),
	}}
	enc := func(tuples [][]int, positions []int) [][]int {
		cp := make([][]int, len(tuples))
		for i, tup := range tuples {
			cp[i] = append([]int(nil), tup...)
		}
		ds.EncodeTuples(cp, positions)
		return cp
	}
	pEnc, err := NewProblem(gao, []AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: enc(r, []int{0, 1})},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: enc(s, []int{1, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]int
	err = MinesweeperStreamContext(context.Background(), pEnc, nil, func(tup []int) bool {
		ds.DecodeInPlace(tup)
		got = append(got, tup)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("encoded join = %v, raw join = %v", got, want)
	}
}
