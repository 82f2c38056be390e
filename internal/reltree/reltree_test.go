package reltree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
	"minesweeper/internal/rows"
)

func mustNew(t *testing.T, name string, arity int, tuples [][]int) *Tree {
	t.Helper()
	tr, err := New(name, arity, tuples)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New("R", 0, nil); err == nil {
		t.Fatal("arity 0 must fail")
	}
	if _, err := New("R", 2, [][]int{{1}}); err == nil {
		t.Fatal("short tuple must fail")
	}
	if _, err := New("R", 1, [][]int{{-3}}); err == nil {
		t.Fatal("negative value must fail")
	}
	if _, err := New("R", 1, [][]int{{ordered.PosInf}}); err == nil {
		t.Fatal("sentinel value must fail")
	}
	if _, err := New("R", 2, nil); err != nil {
		t.Fatalf("empty relation should build: %v", err)
	}
}

func TestPaperFigure3Example(t *testing.T) {
	// Relation R(A2, A4, A5) from Figure 3 of the paper.
	tuples := [][]int{
		{1, 2, 4}, {1, 2, 7}, {1, 3, 5}, {7, 4, 2}, {10, 4, 1},
	}
	r := mustNew(t, "R", 3, tuples)
	if r.Size() != 5 {
		t.Fatalf("Size = %d", r.Size())
	}
	// |R[*]| = 3, |R[0,*]| = 2 (paper's R[1,*]), |R[1,*]| = 1.
	if got := r.Fanout(nil); got != 3 {
		t.Fatalf("Fanout() = %d", got)
	}
	if got := r.Fanout([]int{0}); got != 2 {
		t.Fatalf("Fanout(0) = %d", got)
	}
	if got := r.Fanout([]int{1}); got != 1 {
		t.Fatalf("Fanout(1) = %d", got)
	}
	// Paper (1-based): R[3] = 10, R[1,2] = 3, R[1,1,2] = 7, R[2,1] = 4,
	// R[3,1,1] = 1, R[1,2,1] = 5. Our 0-based equivalents:
	cases := []struct {
		x    []int
		want int
	}{
		{[]int{2}, 10},
		{[]int{0, 1}, 3},
		{[]int{0, 0, 1}, 7},
		{[]int{1, 0}, 4},
		{[]int{2, 0, 0}, 1},
		{[]int{0, 1, 0}, 5},
	}
	for _, c := range cases {
		if got := r.Value(c.x); got != c.want {
			t.Errorf("Value(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Out-of-range conventions (1) and (2).
	if got := r.Value([]int{-1}); got != ordered.NegInf {
		t.Errorf("Value(-1) = %d, want NegInf", got)
	}
	if got := r.Value([]int{3}); got != ordered.PosInf {
		t.Errorf("Value(3) = %d, want PosInf", got)
	}
	if got := r.Value([]int{0, 2}); got != ordered.PosInf {
		t.Errorf("Value(0,2) = %d, want PosInf", got)
	}
}

func TestSectionTwoTupleOrderExample(t *testing.T) {
	// R(A1,A2) = {(1,1),(1,8),(2,3),(2,4)}: R[*]={1,2}, R[1,*]={1,8},
	// R[2]=2, R[2,1]=3 (paper, 1-based).
	r := mustNew(t, "R", 2, [][]int{{1, 1}, {1, 8}, {2, 3}, {2, 4}})
	if got := r.Fanout(nil); got != 2 {
		t.Fatalf("Fanout = %d", got)
	}
	if got := r.Value([]int{1}); got != 2 {
		t.Fatalf("R[2] = %d", got)
	}
	if got := r.Value([]int{1, 0}); got != 3 {
		t.Fatalf("R[2,1] = %d", got)
	}
	if got := r.Value([]int{0, 1}); got != 8 {
		t.Fatalf("R[1,2] = %d", got)
	}
}

func TestDuplicateCollapse(t *testing.T) {
	r := mustNew(t, "R", 2, [][]int{{1, 2}, {1, 2}, {1, 2}, {3, 4}})
	if r.Size() != 2 {
		t.Fatalf("Size = %d, want 2", r.Size())
	}
	want := [][]int{{1, 2}, {3, 4}}
	if got := r.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tuples = %v", got)
	}
}

func TestFindGap(t *testing.T) {
	r := mustNew(t, "R", 1, [][]int{{10}, {20}, {30}})
	cases := []struct {
		a      int
		lo, hi int
	}{
		{5, -1, 0},  // below everything: (-inf, 10)
		{10, 0, 0},  // exact hit
		{15, 0, 1},  // between 10 and 20
		{20, 1, 1},  // exact hit
		{25, 1, 2},  // between
		{30, 2, 2},  // exact
		{35, 2, 3},  // above: (30, +inf)
		{-1, -1, 0}, // probe seed
	}
	for _, c := range cases {
		lo, hi := r.FindGap(nil, c.a)
		if lo != c.lo || hi != c.hi {
			t.Errorf("FindGap(%d) = (%d,%d), want (%d,%d)", c.a, lo, hi, c.lo, c.hi)
		}
	}
}

func TestFindGapNested(t *testing.T) {
	r := mustNew(t, "R", 2, [][]int{{1, 5}, {1, 9}, {4, 2}})
	lo, hi := r.FindGap([]int{0}, 7) // under value 1: {5, 9}
	if lo != 0 || hi != 1 {
		t.Fatalf("FindGap([1],7) = (%d,%d)", lo, hi)
	}
	if v := r.Value([]int{0, lo}); v != 5 {
		t.Fatalf("low value = %d", v)
	}
	if v := r.Value([]int{0, hi}); v != 9 {
		t.Fatalf("high value = %d", v)
	}
	lo, hi = r.FindGap([]int{1}, 2) // under value 4: {2}
	if lo != 0 || hi != 0 {
		t.Fatalf("FindGap([4],2) = (%d,%d)", lo, hi)
	}
}

func TestFindGapEmptyRelation(t *testing.T) {
	r := mustNew(t, "R", 1, nil)
	lo, hi := r.FindGap(nil, 5)
	if lo != -1 || hi != 0 {
		t.Fatalf("FindGap on empty = (%d,%d)", lo, hi)
	}
	if r.Value([]int{-1}) != ordered.NegInf || r.Value([]int{0}) != ordered.PosInf {
		t.Fatal("sentinels on empty relation wrong")
	}
}

func TestFindGapStats(t *testing.T) {
	r := mustNew(t, "R", 1, [][]int{{1}, {2}, {3}})
	var s certificate.Stats
	r.SetStats(&s)
	r.FindGap(nil, 2)
	r.FindGap(nil, 9)
	if s.FindGaps != 2 {
		t.Fatalf("FindGaps = %d", s.FindGaps)
	}
	if s.Comparisons == 0 {
		t.Fatal("comparisons not counted")
	}
	r.SetStats(nil)
	r.FindGap(nil, 2)
	if s.FindGaps != 2 {
		t.Fatal("detached stats still counted")
	}
}

func TestContains(t *testing.T) {
	r := mustNew(t, "R", 3, [][]int{{1, 2, 3}, {1, 2, 5}, {7, 0, 0}})
	if !r.Contains([]int{1, 2, 3}) || !r.Contains([]int{7, 0, 0}) {
		t.Fatal("Contains misses present tuple")
	}
	if r.Contains([]int{1, 2, 4}) || r.Contains([]int{2, 2, 3}) || r.Contains([]int{1, 2}) {
		t.Fatal("Contains accepts absent tuple")
	}
}

func TestTuplesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		arity := 1 + rng.Intn(4)
		n := rng.Intn(60)
		tuples := make([][]int, n)
		seen := map[string]bool{}
		for i := range tuples {
			tup := make([]int, arity)
			for j := range tup {
				tup[j] = rng.Intn(8)
			}
			tuples[i] = tup
			seen[key(tup)] = true
		}
		r := mustNew(t, "R", arity, tuples)
		got := r.Tuples()
		if len(got) != len(seen) {
			t.Fatalf("round trip size %d, want %d", len(got), len(seen))
		}
		for i := 1; i < len(got); i++ {
			if rows.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("Tuples not strictly sorted at %d: %v %v", i, got[i-1], got[i])
			}
		}
		for _, tup := range got {
			if !seen[key(tup)] {
				t.Fatalf("unexpected tuple %v", tup)
			}
			if !r.Contains(tup) {
				t.Fatalf("Contains(%v) = false", tup)
			}
		}
	}
}

func key(tup []int) string {
	b := make([]byte, 0, len(tup)*3)
	for _, v := range tup {
		b = append(b, byte('0'+v), ',')
	}
	return string(b)
}

// TestFindGapQuick property-tests FindGap against a brute-force scan:
// lo is the max index with value ≤ a, hi the min index with value ≥ a.
func TestFindGapQuick(t *testing.T) {
	f := func(vals []uint8, a uint8) bool {
		tuples := make([][]int, len(vals))
		for i, v := range vals {
			tuples[i] = []int{int(v)}
		}
		r, err := New("R", 1, tuples)
		if err != nil {
			return false
		}
		distinct := map[int]bool{}
		for _, v := range vals {
			distinct[int(v)] = true
		}
		var sortedVals []int
		for v := range distinct {
			sortedVals = append(sortedVals, v)
		}
		sort.Ints(sortedVals)
		lo, hi := r.FindGap(nil, int(a))
		wantLo, wantHi := -1, len(sortedVals)
		for i, v := range sortedVals {
			if v <= int(a) {
				wantLo = i
			}
			if v >= int(a) && wantHi == len(sortedVals) {
				wantHi = i
			}
		}
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestFindGapValueSandwich checks the defining property of FindGap:
// Value(x,lo) ≤ a ≤ Value(x,hi) with maximal lo / minimal hi, at every
// depth of a random ternary relation.
func TestFindGapValueSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tuples := make([][]int, 200)
	for i := range tuples {
		tuples[i] = []int{rng.Intn(10), rng.Intn(10), rng.Intn(10)}
	}
	r := mustNew(t, "R", 3, tuples)
	var probe func(x []int, depth int)
	probe = func(x []int, depth int) {
		if depth == 3 {
			return
		}
		for a := -1; a <= 10; a++ {
			lo, hi := r.FindGap(x, a)
			lv := r.Value(append(append([]int{}, x...), lo))
			hv := r.Value(append(append([]int{}, x...), hi))
			if !(lv <= a && a <= hv) {
				t.Fatalf("FindGap(%v,%d): %d ≤ %d ≤ %d fails", x, a, lv, a, hv)
			}
			if lo+1 <= hi-1 {
				t.Fatalf("FindGap(%v,%d): gap (%d,%d) too wide", x, a, lo, hi)
			}
			if lo == hi && lv != a {
				t.Fatalf("FindGap(%v,%d): lo==hi but value %d", x, a, lv)
			}
		}
		n := r.Fanout(x)
		for i := 0; i < n; i++ {
			probe(append(append([]int{}, x...), i), depth+1)
		}
	}
	probe(nil, 0)
}

// TestSliceTopAndClone checks the shared-node view primitives that back
// cached-index reuse: SliceTop restricts to a first-attribute range
// without rebuilding, a View isolates stats receivers, and both agree
// with a tree built from the filtered tuples.
func TestSliceTopAndClone(t *testing.T) {
	tuples := [][]int{{1, 5}, {1, 9}, {3, 2}, {4, 2}, {4, 7}, {8, 1}}
	r := mustNew(t, "R", 2, tuples)
	for _, tc := range []struct {
		lo, hi, size int
	}{
		{0, 100, 6}, {1, 4, 5}, {3, 4, 3}, {4, 4, 2}, {5, 7, 0}, {9, 100, 0},
	} {
		v := r.SliceTop(tc.lo, tc.hi)
		if v.Size() != tc.size {
			t.Fatalf("SliceTop(%d,%d).Size = %d, want %d", tc.lo, tc.hi, v.Size(), tc.size)
		}
		var want [][]int
		for _, tup := range tuples {
			if tc.lo <= tup[0] && tup[0] <= tc.hi {
				want = append(want, tup)
			}
		}
		got := v.Tuples()
		if len(got) != len(want) {
			t.Fatalf("SliceTop(%d,%d) tuples %v, want %v", tc.lo, tc.hi, got, want)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("SliceTop(%d,%d) tuples %v, want %v", tc.lo, tc.hi, got, want)
			}
		}
	}
	// A View has its own stats receiver; the original stays untouched.
	before := Builds()
	var s certificate.Stats
	c := r.View()
	c.SetStats(&s)
	c.FindGap(nil, 4)
	if s.FindGaps != 1 {
		t.Fatalf("clone stats = %d FindGaps, want 1", s.FindGaps)
	}
	var orig certificate.Stats
	r.SetStats(&orig)
	r.FindGap(nil, 4)
	r.SetStats(nil)
	if orig.FindGaps != 1 || s.FindGaps != 1 {
		t.Fatalf("stats not isolated: orig=%d clone=%d", orig.FindGaps, s.FindGaps)
	}
	// Neither View nor SliceTop counts as an index build.
	if Builds() != before {
		t.Fatalf("views counted as builds: %d -> %d", before, Builds())
	}
	// Unary relations slice at the leaf level.
	u := mustNew(t, "U", 1, [][]int{{2}, {4}, {6}})
	if v := u.SliceTop(3, 6); v.Size() != 2 {
		t.Fatalf("unary SliceTop size = %d, want 2", v.Size())
	}
}

// TestGapRun: the range form of FindGap validates a run of siblings in
// one descent, stops at the first violator, and walks either direction.
func TestGapRun(t *testing.T) {
	// Children of the root (depth-0 values 0..4); second attribute holds
	// the gap (10, 20) under every child except child 3 (which has 15).
	r := mustNew(t, "R", 2, [][]int{
		{0, 5}, {0, 25},
		{1, 10}, {1, 20},
		{2, 8}, {2, 30},
		{3, 15},
		{4, 9}, {4, 21},
	})
	var s certificate.Stats
	r.SetStats(&s)
	if n := r.GapRun(nil, 0, 4, 10, 20); n != 3 {
		t.Fatalf("upward GapRun = %d, want 3 (child 3 holds 15)", n)
	}
	if s.FindGaps != 1 {
		t.Fatalf("GapRun counted %d FindGaps, want 1 (a single descent)", s.FindGaps)
	}
	if s.Comparisons == 0 {
		t.Fatal("GapRun must account for its probe comparisons")
	}
	if n := r.GapRun(nil, 2, 0, 10, 20); n != 3 {
		t.Fatalf("downward GapRun = %d, want 3", n)
	}
	if n := r.GapRun(nil, 3, 3, 10, 20); n != 0 {
		t.Fatalf("violating child alone = %d, want 0", n)
	}
	// Sentinel endpoints: (NegInf, 9) is empty under child 0 only when no
	// value is below 9.
	if n := r.GapRun(nil, 0, 1, ordered.NegInf, 9); n != 0 {
		t.Fatalf("GapRun below 9 under child 0 = %d, want 0 (value 5)", n)
	}
	if n := r.GapRun(nil, 1, 2, 21, ordered.PosInf); n != 1 {
		t.Fatalf("GapRun above 21 = %d, want 1 (child 1 holds, child 2 has 30)", n)
	}
	if n := r.GapRun(nil, 1, 1, 20, ordered.PosInf); n != 1 {
		t.Fatalf("GapRun above 20 under child 1 = %d, want 1", n)
	}
	// A GapRun answer must agree with per-sibling FindGap validation.
	for lo, hi := 10, 20; ; {
		want := 0
		for c := 0; c <= 4; c++ {
			l, h := r.FindGap([]int{c}, 15)
			if l == h || r.Value([]int{c, l}) > lo || r.Value([]int{c, h}) < hi {
				break
			}
			want++
		}
		if got := r.GapRun(nil, 0, 4, lo, hi); got != want {
			t.Fatalf("GapRun = %d, FindGap-per-sibling says %d", got, want)
		}
		break
	}
}
