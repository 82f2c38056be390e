package reltree

import (
	"math/rand"
	"sort"
	"testing"

	"minesweeper/internal/ordered"
)

const (
	negInfValue = ordered.NegInf
	posInfValue = ordered.PosInf
)

// refNode is the test's reference trie: the pointer-per-node form of a
// relation tree, built here from the raw tuples with none of the CSR
// code, to cross-check the flat galloping path against.
type refNode struct {
	values   []int
	children []*refNode // nil at the deepest level
}

func buildRef(tuples [][]int, depth, arity int) *refNode {
	n := &refNode{}
	by := map[int][][]int{}
	for _, tup := range tuples {
		if _, ok := by[tup[depth]]; !ok {
			n.values = append(n.values, tup[depth])
		}
		by[tup[depth]] = append(by[tup[depth]], tup)
	}
	sort.Ints(n.values)
	if depth < arity-1 {
		for _, v := range n.values {
			n.children = append(n.children, buildRef(by[v], depth+1, arity))
		}
	}
	return n
}

func (n *refNode) at(x []int) *refNode {
	for _, xi := range x {
		n = n.children[xi]
	}
	return n
}

func (n *refNode) findGap(a int) (lo, hi int) {
	hi = sort.SearchInts(n.values, a)
	if hi < len(n.values) && n.values[hi] == a {
		return hi, hi
	}
	return hi - 1, hi
}

// TestFlatMatchesNodeWalk drives FindGap/Value/InRange/Fanout over
// random trees with random index prefixes and targets and checks the
// flat CSR path against the reference trie. Repeated queries warm
// the galloping hints, so both the cold and the seeded paths are hit.
func TestFlatMatchesNodeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		arity := 1 + rng.Intn(4)
		n := rng.Intn(60)
		tuples := make([][]int, n)
		for i := range tuples {
			tup := make([]int, arity)
			for j := range tup {
				tup[j] = rng.Intn(12) * (1 + rng.Intn(500)) // sparse-ish
			}
			tuples[i] = tup
		}
		tr := mustNew(t, "R", arity, tuples)
		ref := buildRef(tuples, 0, arity)
		for probe := 0; probe < 200; probe++ {
			// Random in-range prefix.
			depth := rng.Intn(arity)
			x := make([]int, 0, depth)
			for d := 0; d < depth; d++ {
				fan := tr.Fanout(x)
				if fan == 0 {
					break
				}
				x = append(x, rng.Intn(fan))
			}
			a := rng.Intn(12 * 501)
			gotLo, gotHi := tr.FindGap(x, a)
			nd := ref.at(x)
			wantLo, wantHi := nd.findGap(a)
			if gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("FindGap(%v, %d) = (%d,%d), node walk says (%d,%d)", x, a, gotLo, gotHi, wantLo, wantHi)
			}
			if got, want := tr.Fanout(x), len(nd.values); got != want {
				t.Fatalf("Fanout(%v) = %d, want %d", x, got, want)
			}
			for _, i := range []int{-1, 0, gotHi, len(nd.values) - 1, len(nd.values)} {
				if got, want := tr.InRange(x, i), i >= 0 && i < len(nd.values); got != want {
					t.Fatalf("InRange(%v, %d) = %v, want %v", x, i, got, want)
				}
				xi := append(append([]int(nil), x...), i)
				got := tr.Value(xi)
				want := 0
				switch {
				case i <= -1:
					want = negInfValue
				case i >= len(nd.values):
					want = posInfValue
				default:
					want = nd.values[i]
				}
				if got != want {
					t.Fatalf("Value(%v) = %d, want %d", xi, got, want)
				}
			}
		}
		// Contains agrees with the materialized tuple set.
		set := map[string]bool{}
		for _, tup := range tr.Tuples() {
			set[keyOf(tup)] = true
		}
		for probe := 0; probe < 100; probe++ {
			tup := make([]int, arity)
			for j := range tup {
				tup[j] = rng.Intn(12 * 501)
			}
			if got, want := tr.Contains(tup), set[keyOf(tup)]; got != want {
				t.Fatalf("Contains(%v) = %v, want %v", tup, got, want)
			}
		}
	}
}

func keyOf(tup []int) string {
	b := make([]byte, 0, len(tup)*4)
	for _, v := range tup {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// TestGallopSearch checks the exponential search against sort.SearchInts
// for every seed position, including out-of-range seeds.
func TestGallopSearch(t *testing.T) {
	arr := []int{2, 3, 3, 7, 9, 14, 14, 14, 20, 31}
	for lo := 0; lo <= len(arr); lo++ {
		for hi := lo; hi <= len(arr); hi++ {
			for a := 0; a <= 33; a++ {
				want := lo + sort.SearchInts(arr[lo:hi], a)
				for seed := lo - 2; seed <= hi+2; seed++ {
					if got := gallopSearch(arr, lo, hi, seed, a); got != want {
						t.Fatalf("gallopSearch(arr, %d, %d, seed=%d, %d) = %d, want %d", lo, hi, seed, a, got, want)
					}
				}
			}
		}
	}
}

// TestSliceTopFlat checks that sliced views answer flat-path queries
// relative to their restricted top level, including slices of slices
// via repeated SliceTop on the same backing arrays.
func TestSliceTopFlat(t *testing.T) {
	var tuples [][]int
	for a := 0; a < 10; a++ {
		for b := 0; b < 3; b++ {
			tuples = append(tuples, []int{a * 5, a*100 + b})
		}
	}
	tr := mustNew(t, "R", 2, tuples)
	sl := tr.SliceTop(10, 30) // values 10,15,20,25,30
	if got := sl.Fanout(nil); got != 5 {
		t.Fatalf("slice Fanout = %d, want 5", got)
	}
	if got := sl.Size(); got != 15 {
		t.Fatalf("slice Size = %d, want 15", got)
	}
	// Index 0 of the slice is absolute value 10.
	if got := sl.Value([]int{0}); got != 10 {
		t.Fatalf("slice Value[0] = %d, want 10", got)
	}
	if lo, hi := sl.FindGap(nil, 17); lo != 1 || hi != 2 {
		t.Fatalf("slice FindGap(17) = (%d,%d), want (1,2)", lo, hi)
	}
	// Children resolve through the absolute offsets: value 20 is slice
	// index 2, its children are 400, 401, 402.
	if got := sl.Fanout([]int{2}); got != 3 {
		t.Fatalf("slice Fanout([2]) = %d, want 3", got)
	}
	if got := sl.Value([]int{2, 1}); got != 401 {
		t.Fatalf("slice Value([2,1]) = %d, want 401", got)
	}
	if !sl.Contains([]int{25, 501}) {
		t.Fatal("slice must contain (25, 501)")
	}
	if sl.Contains([]int{45, 901}) {
		t.Fatal("slice must not contain values outside its range")
	}
}

// TestSliceTopSizes: a view's size is read off the offset chain, at any
// arity and for slices of slices, and matches the tuples it yields.
func TestSliceTopSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for arity := 1; arity <= 4; arity++ {
		tuples := make([][]int, 200)
		for i := range tuples {
			tuples[i] = make([]int, arity)
			for j := range tuples[i] {
				tuples[i][j] = rng.Intn(9)
			}
		}
		tr := mustNew(t, "R", arity, tuples)
		for trial := 0; trial < 50; trial++ {
			lo := rng.Intn(10)
			hi := lo + rng.Intn(10-lo)
			outer := tr.SliceTop(lo-1, hi+1)
			inner := outer.SliceTop(lo, hi)
			want := 0
			for _, tup := range tr.Tuples() {
				if lo <= tup[0] && tup[0] <= hi {
					want++
				}
			}
			if inner.Size() != want || len(inner.Tuples()) != want {
				t.Fatalf("arity %d: SliceTop(%d,%d) of a slice: Size %d, %d tuples, want %d",
					arity, lo, hi, inner.Size(), len(inner.Tuples()), want)
			}
		}
	}
}
