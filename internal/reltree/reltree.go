// Package reltree implements the paper's model of indexed relations
// (Section 2.1 and Figure 3): every relation is stored in an ordered
// search tree whose search key is consistent with the global attribute
// order (GAO). Tuples inside the tree are addressed by index tuples
// x = (x1, …, xj): R[x1] is the x1-th smallest value in the first
// attribute, R[x1, x2] the x2-th smallest second-attribute value among
// tuples whose first attribute equals R[x1], and so on.
//
// The structure supports the single access primitive the Minesweeper
// analysis relies on:
//
//	R.FindGap(x, a) → (lo, hi)
//
// which runs in O(k log |R|) and returns the tightest pair of child
// indexes around the value a under prefix x (Section 2.1).
//
// Index convention: indexes are 0-based; following the paper's
// conventions (1) and (2), the out-of-range index -1 denotes the value
// -∞ and the out-of-range index len denotes +∞.
//
// Physically the tree is a contiguous CSR-style layout — one
// concatenated value array per level plus int32 child-range offsets —
// that every primitive (FindGap, Value, InRange, Fanout, Contains, the
// level walks of Tuples and the Leapfrog iterator) runs on, the probe
// path with hint-seeded galloping search: three array reads per level
// instead of pointer chasing, which is what keeps the Minesweeper probe
// loop inside a few cache lines. A tree is immutable once built; Merge
// derives the tree of a mutated relation from the old arrays and a
// sorted batch without re-sorting.
package reltree

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
	"minesweeper/internal/rows"
)

// builds counts every index constructed since process start, by a full
// build or by Merge; merges counts the latter alone. View and SliceTop
// views are not counted: tests and benchmarks use the counters to assert
// that prepared queries reuse cached indexes instead of rebuilding them,
// and that a mutated relation's indexes are merged forward rather than
// re-sorted.
var builds, merges atomic.Int64

// Builds returns the process-wide count of constructed indexes.
func Builds() int64 { return builds.Load() }

// Merges returns how many of those were derived from a cached index by
// Merge.
func Merges() int64 { return merges.Load() }

// flatIndex is the CSR-style layout of a relation tree: levels[d] holds
// every depth-d value in depth-first order, and offs[d][p] is the start
// of entry p's children inside levels[d+1] (offs[d] carries one trailing
// sentinel, so entry p's children occupy levels[d+1][offs[d][p]:
// offs[d][p+1]]). Every entry above the leaf level has at least one
// child. The layout is immutable and shared by every view of the tree.
type flatIndex struct {
	levels [][]int
	offs   [][]int32 // len arity-1; offs[d] has len(levels[d])+1 entries
}

// maxHintLevels bounds the per-view galloping hints; deeper levels fall
// back to plain binary search (atom arities beyond this are rare).
const maxHintLevels = 8

// Tree is an indexed relation: a search tree over tuples of fixed arity
// whose level order equals the (GAO-consistent) attribute order used to
// build it.
type Tree struct {
	name  string
	arity int
	size  int // number of tuples
	flat  *flatIndex
	// This view's level-0 segment is levels[0][top0:top0+topN]: the
	// whole level for a built tree, a sub-range for a SliceTop view.
	top0, topN int
	stats      *certificate.Stats
	// hints remembers, per level, where the last flat search landed.
	// Probe points ascend lexicographically, so seeding the next search
	// there turns most binary searches into a short gallop. The array is
	// part of the struct value: every per-run View carries its own
	// hints, so concurrent runs over one cached index never share them.
	hints [maxHintLevels]int32
}

// New builds the search tree for the given tuples. All tuples must have
// length arity and components in [0, ordered.PosInf) (the paper's ℕ
// domain). Duplicate tuples are collapsed (relations are sets). The
// tuple slice is not retained. The stats receiver may be nil; use
// SetStats to attach one per run.
//
// New is the [][]int adapter over NewSorted, for callers that hold
// loose rows (the dictionary bind path, the specialized solvers); the
// relation store hands NewSorted its flat rows directly.
func New(name string, arity int, tuples [][]int) (*Tree, error) {
	if arity < 1 {
		return nil, fmt.Errorf("reltree: relation %q: arity must be ≥ 1, got %d", name, arity)
	}
	flat, err := rows.Flatten(arity, tuples)
	if err != nil {
		return nil, fmt.Errorf("reltree: relation %q: %w", name, err)
	}
	return NewSorted(name, arity, rows.Sort(flat, arity)), nil
}

// NewSorted builds the search tree from flat rows that internal/rows
// has already validated and sorted; duplicates collapse. The buffer is
// not retained. A first pass counts the entries of every level, so the
// CSR arrays are allocated once at their exact size.
func NewSorted(name string, arity int, sorted []int) *Tree {
	// opened[d] counts the rows that differ from their predecessor first
	// at column d: each opens one entry at every level from d down.
	opened := make([]int, arity+1)
	for i := arity; i < len(sorted); i += arity {
		d := 0
		for d < arity && sorted[i+d] == sorted[i-arity+d] {
			d++
		}
		opened[d]++
	}
	if len(sorted) > 0 {
		opened[0]++
	}
	for d := 1; d < arity; d++ {
		opened[d] += opened[d-1] // now the number of entries at level d
	}
	b := newBuilder(opened[:arity])
	for i := 0; i < len(sorted); i += arity {
		d := 0
		for i > 0 && d < arity && sorted[i+d] == sorted[i-arity+d] {
			d++
		}
		b.open(sorted[i:i+arity], d)
	}
	return b.tree(name)
}

// builder appends ascending rows to the CSR arrays of a tree under
// construction. Full builds and merges share it, so both produce the
// same layout by the same rule (see open).
type builder struct{ *flatIndex }

// newBuilder allocates the CSR arrays of a len(capacity)-ary tree;
// capacity[d] bounds the number of entries level d will receive.
func newBuilder(capacity []int) builder {
	arity := len(capacity)
	f := &flatIndex{levels: make([][]int, arity), offs: make([][]int32, arity-1)}
	for d, n := range capacity {
		f.levels[d] = make([]int, 0, n)
		if d < arity-1 {
			f.offs[d] = make([]int32, 0, n+1)
		}
	}
	return builder{f}
}

// open appends the entries a row opens: one at every level from depth d,
// the first column where it leaves the path of the row before it (none
// when d is the arity: a repeat). An entry's children start wherever the
// next level has grown to, and follow contiguously, depth-first.
func (b builder) open(row []int, d int) {
	for arity := len(b.levels); d < arity; d++ {
		if d < arity-1 {
			b.offs[d] = append(b.offs[d], int32(len(b.levels[d+1])))
		}
		b.levels[d] = append(b.levels[d], row[d])
	}
}

// add appends one row, which must not sort before the last row added,
// finding where it leaves that row's path by itself: the path of the
// last row is the tail of every level (children follow their parent),
// so no copy of it is kept.
func (b builder) add(row []int) {
	d := 0
	if len(b.levels[0]) > 0 {
		for d < len(row) && b.levels[d][len(b.levels[d])-1] == row[d] {
			d++
		}
	}
	b.open(row, d)
}

// copyRun appends the rows at leaf positions [lo, hi) of the old tree.
// The first goes through add, which settles how much of the builder's
// current path it shares. Every later row follows its old predecessor,
// so it opens exactly the entries it opened in the old tree: per level
// those are one contiguous range, found by binary search over the
// offsets and copied wholesale with the child offsets shifted.
func (b builder) copyRun(old *Tree, lo, hi int, scratch []int) {
	if lo >= hi {
		return
	}
	b.add(old.rowAt(lo, scratch))
	of, leaf := old.flat, len(b.levels)-1
	lo++ // [lo, hi) is now the range of level-d entries the run opens
	childBase := 0
	for d := leaf; d >= 0 && lo < hi; d-- {
		if d < leaf {
			// An entry is opened by the row that opens its first child.
			childLo := lo
			lo, hi = searchOffs(of.offs[d], lo), searchOffs(of.offs[d], hi)
			shift := int32(childBase - childLo)
			for _, o := range of.offs[d][lo:hi] {
				b.offs[d] = append(b.offs[d], o+shift)
			}
		}
		childBase = len(b.levels[d])
		b.levels[d] = append(b.levels[d], of.levels[d][lo:hi]...)
	}
}

// searchOffs returns the first entry whose child range starts at or
// after child position c (the sentinel's index when none does).
func searchOffs(offs []int32, c int) int {
	p, _ := slices.BinarySearch(offs, int32(c))
	return p
}

// tree closes the offset arrays with their sentinels and wraps the
// layout in a Tree, counted as one build.
func (b builder) tree(name string) *Tree {
	for d := range b.offs {
		b.offs[d] = append(b.offs[d], int32(len(b.levels[d+1])))
	}
	builds.Add(1)
	arity := len(b.levels)
	return &Tree{name: name, arity: arity, size: len(b.levels[arity-1]), flat: b.flatIndex, topN: len(b.levels[0])}
}

// Merge returns the tree over (t's rows − dels) ∪ adds without
// re-sorting t: O(n) copying plus O(m log n) searching for a batch of m
// rows. adds and dels are flat rows in t's column order, validated and
// sorted by internal/rows, with no row in both; either may be empty,
// repeat rows, add rows t already holds or delete rows it does not. t —
// a built tree, not a SliceTop view — is left untouched, so runs still
// probing it are unaffected.
//
// Each batch row is located by one descent of t; the old rows between
// two batch rows are carried over by copyRun.
func Merge(t *Tree, adds, dels []int) *Tree {
	k := t.arity
	capacity, scratch := make([]int, k), make([]int, k)
	for d, level := range t.flat.levels {
		capacity[d] = len(level) + len(adds)/k
	}
	b := newBuilder(capacity)
	from := 0 // first old leaf neither copied nor dropped yet
	for len(adds) > 0 || len(dels) > 0 {
		del := len(adds) == 0 || (len(dels) > 0 && rows.Compare(dels[:k], adds[:k]) < 0)
		var row []int
		if del {
			row, dels = dels[:k], dels[k:]
		} else {
			row, adds = adds[:k], adds[k:]
		}
		at, found := t.lowerBound(row)
		switch {
		case del && found && at >= from: // at < from: a repeat of the row just dropped
			b.copyRun(t, from, at, scratch)
			from = at + 1
		case !del && !found:
			b.copyRun(t, from, at, scratch)
			b.add(row)
			from = at
		}
	}
	b.copyRun(t, from, t.size, scratch)
	merges.Add(1)
	return b.tree(t.name)
}

// Name returns the relation's name.
func (t *Tree) Name() string { return t.name }

// Arity returns the number of attributes.
func (t *Tree) Arity() int { return t.arity }

// Size returns the number of (distinct) tuples.
func (t *Tree) Size() int { return t.size }

// SetStats attaches the per-run cost counters; nil detaches.
func (t *Tree) SetStats(s *certificate.Stats) { t.stats = s }

// View returns a shallow per-run copy of the tree: it shares the
// immutable CSR arrays but carries no stats receiver, so concurrent
// executions over a cached index can each attach their own counters
// without racing. O(1); callers that view many trees per run
// (Problem.Snapshot) store the Views in one block.
func (t *Tree) View() Tree {
	cp := *t
	cp.stats = nil
	return cp
}

// SliceTop returns a view of the tree restricted to the tuples whose
// first attribute lies in [lo, hi]. The view shares the CSR arrays with
// the receiver (nothing is re-sorted or rebuilt), which is how
// range-morsel executions (engine.Parallel) hand each morsel its part of
// a cached index. The view carries no stats receiver. O(log fanout), one
// allocation.
func (t *Tree) SliceTop(lo, hi int) *Tree {
	top := t.flat.levels[0][t.top0 : t.top0+t.topN]
	i := sort.SearchInts(top, lo)
	j := sort.SearchInts(top, hi+1)
	v := &Tree{name: t.name, arity: t.arity, flat: t.flat, top0: t.top0 + i, topN: j - i}
	first, end := v.leaves()
	v.size = end - first
	return v
}

// Top returns the range [lo, hi) of Level(0) this view covers. Together
// with Level and Children it lets iterator-style consumers (Leapfrog,
// the range partitioners) walk the CSR arrays directly.
func (t *Tree) Top() (lo, hi int) { return t.top0, t.top0 + t.topN }

// Level returns the value array of depth d: every depth-d value of the
// underlying tree in depth-first order. Positions are absolute, shared
// by all views; the array must not be modified.
func (t *Tree) Level(d int) []int { return t.flat.levels[d] }

// Children returns the range [lo, hi) of Level(d+1) holding the children
// of the entry at position p of Level(d), d < Arity()-1.
func (t *Tree) Children(d, p int) (lo, hi int) {
	return int(t.flat.offs[d][p]), int(t.flat.offs[d][p+1])
}

// leaves returns the range of leaf-level positions under this view.
func (t *Tree) leaves() (lo, hi int) {
	lo, hi = t.Top()
	for _, o := range t.flat.offs {
		lo, hi = int(o[lo]), int(o[hi])
	}
	return lo, hi
}

// flatSeg resolves index prefix x to the absolute value range
// [lo, hi) of its children at level len(x): three array reads per level
// against contiguous memory, no pointer chasing. ok is false when x is
// out of range.
func (t *Tree) flatSeg(x []int) (lo, hi int, ok bool) {
	lo, hi = t.Top()
	f := t.flat
	for d, xi := range x {
		if xi < 0 || xi >= hi-lo || d >= len(f.offs) {
			return 0, 0, false
		}
		p := lo + xi
		lo, hi = int(f.offs[d][p]), int(f.offs[d][p+1])
	}
	return lo, hi, true
}

// gallopSearch returns the first index in [lo, hi) whose value is ≥ a
// (hi when none is), starting from seed: exponential probing outward
// from the seed, then binary search over the surviving range. When the
// seed is near the answer — the common case on ascending probe points —
// the search touches O(log distance) entries instead of O(log n).
func gallopSearch(arr []int, lo, hi, seed, a int) int {
	if lo >= hi {
		return lo
	}
	if seed < lo {
		seed = lo
	} else if seed >= hi {
		seed = hi - 1
	}
	var l, r int // answer ∈ [l, r]; arr[l-1] < a (or l == lo), arr[r] ≥ a (or r == hi)
	if arr[seed] < a {
		l = seed + 1
		step := 1
		r = l + step
		for r < hi && arr[r] < a {
			l = r + 1
			step <<= 1
			r = l + step
		}
		if r > hi {
			r = hi
		}
	} else {
		r = seed
		step := 1
		l = r - step
		for l > lo && arr[l-1] >= a {
			r = l - 1
			step <<= 1
			l = r - step
		}
		if l < lo {
			l = lo
		}
	}
	for l < r {
		m := int(uint(l+r) >> 1)
		if arr[m] < a {
			l = m + 1
		} else {
			r = m
		}
	}
	return l
}

// Fanout returns |R[x, *]|: the number of distinct values below prefix x.
// It panics if x is out of range or longer than arity-1.
func (t *Tree) Fanout(x []int) int {
	lo, hi, ok := t.flatSeg(x)
	if !ok {
		panic(fmt.Sprintf("reltree: %s: Fanout of invalid index tuple %v", t.name, x))
	}
	return hi - lo
}

// Value returns R[x]: the value addressed by the non-empty index tuple x.
// All components except the last must be in range; the last component may
// be the out-of-range -1 (returns NegInf) or len (returns PosInf),
// following conventions (1) and (2) of the paper.
func (t *Tree) Value(x []int) int {
	if len(x) == 0 {
		panic("reltree: Value of empty index tuple")
	}
	lo, hi, ok := t.flatSeg(x[:len(x)-1])
	if !ok {
		panic(fmt.Sprintf("reltree: %s: Value of invalid index tuple %v", t.name, x))
	}
	last := x[len(x)-1]
	switch {
	case last <= -1:
		return ordered.NegInf
	case last >= hi-lo:
		return ordered.PosInf
	}
	return t.flat.levels[len(x)-1][lo+last]
}

// InRange reports whether index i is a real coordinate under prefix x.
func (t *Tree) InRange(x []int, i int) bool {
	lo, hi, ok := t.flatSeg(x)
	return ok && i >= 0 && i < hi-lo
}

// FindGap implements the index primitive of Section 2.1: given an in-range
// index tuple x with len(x) < arity and a value a, it returns indexes
// (lo, hi) such that R[(x, lo)] ≤ a ≤ R[(x, hi)], lo maximal and hi
// minimal. lo may be -1 (value -∞) and hi may be Fanout(x) (value +∞).
// When a occurs under x, lo == hi. Runs in O(log |R|) via binary search
// and counts one FindGap plus its comparisons in the attached Stats.
func (t *Tree) FindGap(x []int, a int) (lo, hi int) {
	segLo, segHi, ok := t.flatSeg(x)
	if !ok {
		panic(fmt.Sprintf("reltree: %s: FindGap under invalid index tuple %v", t.name, x))
	}
	if t.stats != nil {
		t.stats.FindGaps++
		steps := 1
		for m := segHi - segLo; m > 1; m /= 2 {
			steps++
		}
		t.stats.Comparisons += int64(steps)
	}
	d := len(x)
	arr := t.flat.levels[d]
	seed := segLo
	if d < maxHintLevels {
		seed = int(t.hints[d])
	}
	i := gallopSearch(arr, segLo, segHi, seed, a)
	if d < maxHintLevels {
		t.hints[d] = int32(i)
	}
	hi = i - segLo
	if i < segHi && arr[i] == a {
		return hi, hi
	}
	return hi - 1, hi
}

// GapRun reports how many consecutive children of prefix x — starting at
// child index cFrom and stepping toward cTo (inclusive; cTo < cFrom walks
// downward) — have no value strictly inside the open interval
// (loVal, hiVal) at depth len(x)+1. The walk stops at the first child
// that violates the gap, so the cost is proportional to the validated
// run, not to the requested one.
//
// This is the range form of FindGap that box widening needs: validating
// W siblings one FindGap at a time costs W full descents, while GapRun
// resolves the prefix once and then probes each child's sorted run in
// the contiguous child-level array with a galloped successor search
// seeded at the previous child's landing offset — on clustered data,
// where siblings repeat the same sub-sequence, each probe lands within a
// few steps of its seed. One GapRun is counted as one FindGap (a single
// descent) plus the comparisons its child probes perform.
func (t *Tree) GapRun(x []int, cFrom, cTo, loVal, hiVal int) int {
	d := len(x)
	if d >= t.arity-1 {
		panic(fmt.Sprintf("reltree: %s: GapRun under invalid index tuple %v", t.name, x))
	}
	segLo, segHi, ok := t.flatSeg(x)
	if !ok {
		panic(fmt.Sprintf("reltree: %s: GapRun under invalid index tuple %v", t.name, x))
	}
	fan := segHi - segLo
	step := 1
	if cTo < cFrom {
		step = -1
	}
	if cFrom < 0 || cFrom >= fan || cTo < 0 || cTo >= fan {
		panic(fmt.Sprintf("reltree: %s: GapRun child range [%d,%d] out of fanout %d", t.name, cFrom, cTo, fan))
	}
	if t.stats != nil {
		t.stats.FindGaps++
	}
	arr := t.flat.levels[d+1]
	offs := t.flat.offs[d]
	n := 0
	seedOff := 0 // landing offset within the previous run
	for c := cFrom; ; c += step {
		p := segLo + c
		rA, rB := int(offs[p]), int(offs[p+1])
		if t.stats != nil {
			steps := 1
			for m := rB - rA; m > 1; m /= 2 {
				steps++
			}
			t.stats.Comparisons += int64(steps)
		}
		i := gallopSearch(arr, rA, rB, rA+seedOff, loVal+1)
		if i < rB && arr[i] < hiVal {
			return n // a value inside the gap: the run ends here
		}
		seedOff = i - rA
		n++
		if c == cTo {
			return n
		}
	}
}

// Contains reports whether the full tuple is present in the relation.
func (t *Tree) Contains(tuple []int) bool {
	if len(tuple) != t.arity {
		return false
	}
	_, found := t.lowerBound(tuple)
	return found
}

// lowerBound descends the view along row (len(row) == arity) and
// returns the leaf position of the first tuple not less than it — the
// end of the view's leaf range when every tuple is less — and whether
// that tuple equals row.
func (t *Tree) lowerBound(row []int) (leaf int, found bool) {
	f := t.flat
	lo, hi := t.Top()
	for d := 0; ; d++ {
		i := gallopSearch(f.levels[d], lo, hi, lo, row[d])
		if i == hi || f.levels[d][i] != row[d] {
			// The answer is the first leaf under entry i (when i == hi,
			// under whatever follows this sibling range).
			for ; d < t.arity-1; d++ {
				i = int(f.offs[d][i])
			}
			return i, false
		}
		if d == t.arity-1 {
			return i, true
		}
		lo, hi = int(f.offs[d][i]), int(f.offs[d][i+1])
	}
}

// rowAt writes the tuple at the given leaf position into buf (len
// arity) and returns it: each level's entry is the last one whose child
// range starts at or before the entry below.
func (t *Tree) rowAt(leaf int, buf []int) []int {
	f, p := t.flat, leaf
	buf[t.arity-1] = f.levels[t.arity-1][p]
	for d := t.arity - 2; d >= 0; d-- {
		p = searchOffs(f.offs[d], p+1) - 1
		buf[d] = f.levels[d][p]
	}
	return buf
}

// Tuples materializes all tuples in lexicographic order (mainly for tests
// and baseline algorithms). The rows are carved from one buffer.
func (t *Tree) Tuples() [][]int {
	f, k := t.flat, t.arity
	first, end := t.leaves()
	flat := make([]int, 0, (end-first)*k)
	// path[d] is the level-d entry above the current leaf. Entries have
	// no empty child ranges, so stepping to the next leaf moves each
	// ancestor by at most one.
	path := make([]int, k)
	path[0] = t.top0
	for d := 0; d < k-1; d++ {
		path[d+1] = int(f.offs[d][path[d]])
	}
	for leaf := first; leaf < end; leaf++ {
		path[k-1] = leaf
		for d := k - 2; d >= 0 && int(f.offs[d][path[d]+1]) <= path[d+1]; d-- {
			path[d]++
		}
		for d, p := range path {
			flat = append(flat, f.levels[d][p])
		}
	}
	return rows.Views(flat, k)
}
