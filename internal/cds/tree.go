package cds

import (
	"minesweeper/internal/arena"
	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
)

// node is one ConstraintTree node. A node at depth d is identified by the
// pattern of length d spelled by the labels on the path from the root
// (Section 4.2); it owns
//
//   - equalities: labelled children, one per equality value (the sorted
//     list of Figure 1), plus at most one wildcard child, and
//   - intervals: the disjoint open intervals ruled out for attribute d
//     under this pattern.
//
// Invariant: no equality child label is covered by intervals — inserting
// an interval deletes the children it swallows (Algorithm 5).
//
// The SortedList and RangeSet are embedded by value: a node is one flat
// arena slot, and its child list / interval list start in the embedded
// small-array mode with no satellite allocations. Leaf-adjacent nodes —
// the bulk of any tree — therefore never allocate beyond their key
// arrays, and never at all once those arrays have grown once.
type node struct {
	depth     int
	pattern   Pattern // path from the root; interned in the tree's arena
	eq        ordered.SortedList[*node]
	star      *node
	intervals ordered.RangeSet
}

// reset readies an arena slot for reuse, retaining the embedded lists'
// backing storage so a recycled node allocates nothing on its next fill.
func (v *node) reset(depth int, pattern Pattern) {
	v.depth = depth
	v.pattern = pattern
	v.star = nil
	v.eq.Reset()
	v.intervals.Reset()
}

// patChunkSize is the pattern-arena granularity (in components).
const patChunkSize = 512

// Tree is the ConstraintTree CDS. It supports InsConstraint (Algorithm 5)
// and GetProbePoint (Algorithms 3/4, generalized per Algorithms 6/7).
// A Tree is built for a fixed number of attributes n; probe points are
// full n-tuples in GAO order.
//
// A Tree owns all of its memory: nodes come from a chunked arena,
// node patterns are interned into a component arena (constraint
// prefixes passed to InsConstraint are never retained, so callers may
// reuse their buffers), and the probe-point machinery works in
// per-tree scratch space. On the steady-state path — probing and
// inserting constraints that only touch existing nodes — the tree
// performs zero allocations; see the AllocsPerRun regression tests.
type Tree struct {
	n     int
	root  *node
	stats *certificate.Stats
	memo  bool

	// trace, when non-nil, receives every inserted constraint
	// (outer-algorithm and internal memoization alike); used by tests to
	// verify that probe points are active w.r.t. everything stored.
	trace func(Constraint)

	// node arena; Reset rewinds it. Slots are reset at hand-out, which
	// keeps a recycled node's embedded list storage.
	nodes arena.Arena[node]

	// pattern arena: interned copies of the patterns of materialized
	// nodes, appended into fixed-capacity chunks so earlier interned
	// slices are never moved.
	patChunks [][]Comp
	patIdx    int

	// box storage: arena-backed slots indexed by the GAO position of
	// their last dimension, with dimension ranges interned into a
	// chunked range arena mirroring the pattern arena.
	boxes       arena.Arena[boxNode]
	boxByLast   [][]*boxNode
	rangeChunks [][]ordered.Range
	rangeIdx    int

	// box applicability index (see activeBoxes): per last position, the
	// buckets of boxes sharing a prefix shape and pinned values, the
	// key→bucket map, the distinct shapes to query, and the linear
	// overflow list for prefixes too long for a shape mask. Reset empties
	// all of it — a recycled tree must not walk the shapes or keep the
	// keys of an earlier run, or CDSOps would depend on what the tree
	// served before — but keeps every backing array (maps, bucket lists
	// and each bucket's box slices), so a re-filled tree re-uses them.
	boxBuckets  [][]boxBucket
	boxKeyIdx   []map[boxKey]int
	boxShapesAt [][]boxShape
	boxOverflow [][]*boxNode

	// GetProbePoint scratch, reused across calls.
	tv          []int           // the probe point under construction (returned!)
	levelA      []*node         // filter frontier double buffer
	levelB      []*node         //
	chainOrder  []*node         // buildChain linearization
	chainBuf    []chainEntry    //
	suffixBuf   []Pattern       // shadow suffix meets
	meetBuf     []Comp          // backing for freshly computed meets
	boxScratch  []*boxNode      // active boxes at the current level
	eqBuf       []Comp          // backing for fully-specific backtrack prefixes
	resolveDims []ordered.Range // geometric-resolution window accumulator
}

// NewTree returns an empty CDS over n ≥ 1 attributes with inferred-
// constraint memoization enabled (the lazy-inference strategy of
// Section 4.1).
func NewTree(n int) *Tree {
	t := &Tree{n: n, memo: true}
	t.root = t.newNode(0, Pattern{})
	t.tv = make([]int, n)
	t.boxByLast = make([][]*boxNode, n)
	t.boxBuckets = make([][]boxBucket, n)
	t.boxKeyIdx = make([]map[boxKey]int, n)
	t.boxShapesAt = make([][]boxShape, n)
	t.boxOverflow = make([][]*boxNode, n)
	t.eqBuf = make([]Comp, n)
	return t
}

// Reset empties the tree in place: the node and pattern arenas rewind to
// their starts and every scratch buffer is retained, so a reset tree
// re-fills without allocating until it outgrows its previous high-water
// footprint. Stats/trace attachments and the memoization setting are
// kept. The tree serves the same attribute count as before.
func (t *Tree) Reset() {
	t.nodes.Rewind()
	for i := range t.patChunks {
		t.patChunks[i] = t.patChunks[i][:0]
	}
	t.patIdx = 0
	t.boxes.Rewind()
	for i := range t.boxByLast {
		t.boxByLast[i] = t.boxByLast[i][:0]
		t.boxOverflow[i] = t.boxOverflow[i][:0]
		for j := range t.boxBuckets[i] {
			bk := &t.boxBuckets[i][j]
			bk.boxes = bk.boxes[:0]
			bk.maxHi = bk.maxHi[:0]
		}
		t.boxBuckets[i] = t.boxBuckets[i][:0]
		t.boxShapesAt[i] = t.boxShapesAt[i][:0]
		clear(t.boxKeyIdx[i])
	}
	for i := range t.rangeChunks {
		t.rangeChunks[i] = t.rangeChunks[i][:0]
	}
	t.rangeIdx = 0
	t.root = t.newNode(0, Pattern{})
}

// newNode hands out the next arena slot, reset and ready. The pattern is
// interned so the caller's backing memory is never retained.
func (t *Tree) newNode(depth int, pattern Pattern) *node {
	v := t.nodes.Alloc()
	v.reset(depth, t.internPattern(pattern))
	return v
}

// internPattern copies p into the tree-owned pattern arena and returns
// the durable copy. Chunks are never reallocated once handed out, so
// previously interned patterns stay valid for the life of the tree.
func (t *Tree) internPattern(p Pattern) Pattern {
	if len(p) == 0 {
		return Pattern{}
	}
	if t.patIdx == len(t.patChunks) {
		size := patChunkSize
		if len(p) > size {
			size = len(p)
		}
		t.patChunks = append(t.patChunks, make([]Comp, 0, size))
	}
	cur := t.patChunks[t.patIdx]
	if cap(cur)-len(cur) < len(p) {
		t.patIdx++
		return t.internPattern(p)
	}
	start := len(cur)
	cur = append(cur, p...)
	t.patChunks[t.patIdx] = cur
	return Pattern(cur[start:len(cur):len(cur)])
}

// SetMemo toggles inferred-constraint memoization (Algorithm 4 line 13 /
// Algorithm 7 line 11). Disabling it preserves correctness but forfeits
// the amortized bounds of Lemma 4.3 — Example 4.1's Ω(N³) blow-up; it
// exists for the ablation benchmarks.
func (t *Tree) SetMemo(on bool) { t.memo = on }

// Attrs returns the number of attributes n.
func (t *Tree) Attrs() int { return t.n }

// SetStats attaches per-run cost counters (may be nil).
func (t *Tree) SetStats(s *certificate.Stats) { t.stats = s }

// SetTrace attaches a hook receiving every constraint stored (for tests).
func (t *Tree) SetTrace(fn func(Constraint)) { t.trace = fn }

func (t *Tree) countOp() {
	if t.stats != nil {
		t.stats.CDSOps++
	}
}
func (t *Tree) countOps(k int) {
	if t.stats != nil {
		t.stats.CDSOps += int64(k)
	}
}

// ensure returns the node for the given pattern, materializing the path.
// It does not check interval subsumption; see InsConstraint for that.
func (t *Tree) ensure(p Pattern) *node {
	v := t.root
	for i, c := range p {
		t.countOp()
		if c.Star {
			if v.star == nil {
				v.star = t.newNode(i+1, p[:i+1])
			}
			v = v.star
			continue
		}
		child, ok := v.eq.Find(c.Val)
		if !ok {
			child = t.newNode(i+1, p[:i+1])
			v.eq.Insert(c.Val, child)
		}
		v = child
	}
	return v
}

// insertInterval stores the open interval (lo, hi) at v and deletes the
// equality children it swallows, maintaining the node invariant.
func (t *Tree) insertInterval(v *node, lo, hi int) {
	t.countOp()
	v.intervals.InsertOpen(lo, hi)
	t.countOps(v.eq.DeleteIntervalCount(lo, hi))
}

// InsConstraint inserts a constraint vector (Algorithm 5). If a prefix
// equality value is already covered by an ancestor's intervals the
// constraint is subsumed and dropped. Empty intervals are ignored.
// Amortized O(n log W) (Proposition 3.1). The constraint's Prefix is
// not retained: new nodes intern their patterns, so callers may reuse
// the backing buffer.
func (t *Tree) InsConstraint(c Constraint) {
	if len(c.Prefix) >= t.n {
		panic("cds: constraint prefix too long for attribute count")
	}
	if c.Empty() {
		return
	}
	if t.trace != nil {
		t.trace(c)
	}
	if t.stats != nil {
		t.stats.Constraints++
	}
	v := t.root
	for i, comp := range c.Prefix {
		t.countOp()
		if !comp.Star && v.intervals.Covers(comp.Val) {
			return // subsumed by an existing broader constraint
		}
		if comp.Star {
			if v.star == nil {
				v.star = t.newNode(i+1, c.Prefix[:i+1])
			}
			v = v.star
		} else {
			child, ok := v.eq.Find(comp.Val)
			if !ok {
				child = t.newNode(i+1, c.Prefix[:i+1])
				v.eq.Insert(comp.Val, child)
			}
			v = child
		}
	}
	t.insertInterval(v, c.Lo, c.Hi)
}

// filter collects the principal filter G(t1..ti): every node at depth i
// whose pattern generalizes the prefix, keeping only nodes with at least
// one stored interval (Algorithm 3 line 3). The walk follows both the
// star child and the matching equality child at every level, over the
// tree's reusable frontier double-buffer.
func (t *Tree) filter(prefix []int) []*node {
	level := append(t.levelA[:0], t.root)
	next := t.levelB[:0]
	for _, tv := range prefix {
		next = next[:0]
		for _, u := range level {
			t.countOp()
			if u.star != nil {
				next = append(next, u.star)
			}
			if child, ok := u.eq.Find(tv); ok {
				next = append(next, child)
			}
		}
		level, next = next, level
		if len(level) == 0 {
			break
		}
	}
	t.levelA, t.levelB = level, next // retain grown capacity
	out := level[:0]
	for _, u := range level {
		if !u.intervals.Empty() {
			out = append(out, u)
		}
	}
	return out
}

// chainEntry pairs a filter node with its shadow (Appendix G). For
// β-acyclic GAOs the filter is a chain (Proposition 4.2) and every node is
// its own shadow, so the walk degenerates to Algorithm 4 exactly.
type chainEntry struct {
	orig   *node
	shadow *node
}

// buildChain linearizes G (most specialized first — sorting by equality
// count descending is a valid linearization since strict specialization
// strictly increases the count), computes the shadow patterns
// P̄(u_j) = ∧_{l ≥ j} P(u_l), and materializes shadow nodes. All
// intermediate state lives in tree scratch; the returned slice is valid
// until the next buildChain call. In the β-acyclic chain case every
// suffix meet collapses onto an existing pattern and nothing is
// computed or materialized.
func (t *Tree) buildChain(g []*node) []chainEntry {
	order := append(t.chainOrder[:0], g...)
	// Insertion sort by EqCount descending (G is small: ≤ 2^depth, in
	// practice ≤ m+1 patterns).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].pattern.EqCount() > order[j-1].pattern.EqCount(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	entries := t.chainBuf[:0]
	for _, u := range order {
		entries = append(entries, chainEntry{orig: u})
	}
	// Shadows are the suffix meets P̄(u_j) = ∧_{l ≥ j} P(u_l). When
	// P(u_j) specializes the running meet — always, on a chain — the
	// meet is P(u_j) itself and no fresh pattern is needed.
	suffix := t.suffixBuf[:0]
	for range order {
		suffix = append(suffix, nil)
	}
	t.meetBuf = t.meetBuf[:0]
	for j := len(order) - 1; j >= 0; j-- {
		switch {
		case j == len(order)-1:
			suffix[j] = order[j].pattern
		case order[j].pattern.SpecializationOf(suffix[j+1]):
			suffix[j] = order[j].pattern
		default:
			suffix[j] = t.meetInto(order[j].pattern, suffix[j+1])
		}
	}
	for j := range entries {
		if patternsEqual(suffix[j], entries[j].orig.pattern) {
			entries[j].shadow = entries[j].orig
		} else {
			entries[j].shadow = t.ensure(suffix[j])
		}
	}
	t.chainOrder, t.chainBuf, t.suffixBuf = order, entries, suffix
	return entries
}

// meetInto computes Meet(p, q) into the tree's meet scratch. The result
// is valid until the next GetProbePoint iteration; ensure() interns it
// if a shadow node is materialized from it.
func (t *Tree) meetInto(p, q Pattern) Pattern {
	start := len(t.meetBuf)
	for i := range p {
		switch {
		case p[i].Star:
			t.meetBuf = append(t.meetBuf, q[i])
		default:
			t.meetBuf = append(t.meetBuf, p[i])
		}
	}
	return Pattern(t.meetBuf[start:len(t.meetBuf):len(t.meetBuf)])
}

func patternsEqual(a, b Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nextPair returns the smallest y ≥ x not covered at the shadow node nor
// at its original node, memoizing the skipped stretch at the shadow
// (Algorithm 4 on the two-element chain {ū, u} used by Algorithm 7).
func (t *Tree) nextPair(x int, e chainEntry) int {
	if e.shadow == e.orig {
		t.countOp()
		return e.orig.intervals.Next(x)
	}
	y := x
	for {
		t.countOps(2)
		z := e.orig.intervals.Next(y)
		y = e.shadow.intervals.Next(z)
		if y == z {
			break
		}
	}
	if y > x && t.memo {
		t.insertInterval(e.shadow, x-1, y)
		if t.trace != nil {
			t.trace(Constraint{Prefix: e.shadow.pattern, Lo: x - 1, Hi: y})
		}
	}
	return y
}

// nextChainVal returns the smallest y ≥ x free at every entry of
// chain[j:], inserting inferred constraints at shadows along the way
// (Algorithms 4 and 7: nextChainVal / nextShadowChainVal).
func (t *Tree) nextChainVal(x int, chain []chainEntry, j int) int {
	if j == len(chain)-1 {
		return t.nextPair(x, chain[j])
	}
	y := x
	for {
		z := t.nextChainVal(y, chain, j+1)
		y = t.nextPair(z, chain[j])
		if y == z {
			break
		}
	}
	// Memoize at this level's shadow: everything in (x-1, y) is ruled out
	// for tuples matching the shadow pattern.
	if !t.memo {
		return y
	}
	if y > x && chain[j].shadow != chain[j].orig {
		t.insertInterval(chain[j].shadow, x-1, y)
		if t.trace != nil {
			t.trace(Constraint{Prefix: chain[j].shadow.pattern, Lo: x - 1, Hi: y})
		}
	} else if y > x {
		t.insertInterval(chain[j].orig, x-1, y)
		if t.trace != nil {
			t.trace(Constraint{Prefix: chain[j].orig.pattern, Lo: x - 1, Hi: y})
		}
	}
	return y
}

// GetProbePoint returns a tuple t active with respect to every stored
// constraint, or nil when the constraints cover the whole output space
// (Algorithm 3, generalized per Algorithm 6). Values are found
// coordinate by coordinate, backtracking with inferred constraints when a
// prefix admits no continuation.
//
// The returned slice is the tree's probe scratch: it is valid until the
// next call to GetProbePoint and must be copied by callers that retain
// it. On the steady-state path the call performs zero allocations.
func (t *Tree) GetProbePoint() []int {
	tv := t.tv
	i := 0
	for i < t.n {
		g := t.filter(tv[:i])
		act := t.activeBoxes(i)
		if len(g) == 0 && len(act) == 0 {
			tv[i] = -1
			i++
			continue
		}
		var chain []chainEntry
		if len(g) > 0 {
			chain = t.buildChain(g)
		}
		val := -1
		if chain != nil {
			val = t.nextChainVal(-1, chain, 0)
		}
		// Alternate chain advances with box skips until a value is free
		// of both, or the level is exhausted.
		usedBox := false
		for len(act) > 0 && val < ordered.PosInf {
			nv := t.boxAdvance(val, act)
			if nv == val {
				break
			}
			val, usedBox = nv, true
			if chain == nil || val >= ordered.PosInf {
				break
			}
			val = t.nextChainVal(val, chain, 0)
		}
		if val < ordered.PosInf {
			tv[i] = val
			i++
			continue
		}
		// No value available: back-track (Algorithm 3 lines 11–16).
		if chain != nil && !usedBox {
			// Interval-only cover: coverage of level i depends only on
			// the components pinned by the chain's bottom shadow
			// pattern, so the inferred constraint may keep that
			// pattern's generality.
			bottom := chain[0].shadow.pattern
			i0 := bottom.LastEqPos()
			if i0 == 0 {
				return nil
			}
			if t.stats != nil {
				t.stats.Backtracks++
			}
			pv := bottom[i0-1].Val
			t.InsConstraint(Constraint{
				Prefix: bottom[:i0-1],
				Lo:     pv - 1,
				Hi:     pv + 1,
			})
			i = i0 - 1
			continue
		}
		// Boxes contributed to the cover, so i ≥ 1 (a box's last
		// dimension is at position ≥ 1) and a box's applicability may
		// hinge on any coordinate of the current prefix. Geometric
		// resolution re-proves the exhaustion and generalizes it to the
		// whole applicability rectangle A_0×…×A_{i-1} of the proof,
		// stored as a derived box: one backtrack rules out the remainder
		// of a cluster — and, crucially, the derived box keeps covering
		// sibling prefixes, so the exhaustion is never re-derived one
		// value at a time (which would not terminate on an unbounded
		// domain). On the rare resolution failure the fully-specific
		// single-value constraint still guarantees local progress.
		if t.stats != nil {
			t.stats.Backtracks++
		}
		if dims, ok := t.boxResolve(i, g, act); ok {
			t.InsBox(BoxConstraint{Dims: dims})
		} else {
			pv := tv[i-1]
			t.InsConstraint(Constraint{
				Prefix: t.eqPrefix(i - 1),
				Lo:     pv - 1,
				Hi:     pv + 1,
			})
		}
		i--
	}
	if t.stats != nil {
		t.stats.ProbePoints++
	}
	return tv
}

// CoversTuple reports whether some stored constraint rules out the full
// tuple — i.e. the tuple is NOT active. Used by tests and debug checks;
// walks all generalization paths, O(2^n log W) worst case.
func (t *Tree) CoversTuple(tuple []int) bool {
	level := []*node{t.root}
	for i := 0; i < t.n && len(level) > 0; i++ {
		for _, u := range level {
			if u.intervals.Covers(tuple[i]) {
				return true
			}
		}
		if i == t.n-1 {
			break
		}
		next := make([]*node, 0, len(level)*2)
		for _, u := range level {
			if u.star != nil {
				next = append(next, u.star)
			}
			if child, ok := u.eq.Find(tuple[i]); ok {
				next = append(next, child)
			}
		}
		level = next
	}
	for _, list := range t.boxByLast {
		for _, v := range list {
			if v.covers(tuple) {
				return true
			}
		}
	}
	return false
}
