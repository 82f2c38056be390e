package cds

import (
	"fmt"
	"sort"
	"strings"

	"minesweeper/internal/ordered"
)

// BoxConstraint is the multi-dimensional generalization of a constraint
// vector: a rectangle of ruled-out space spanning a contiguous run of
// GAO positions. A tuple t is ruled out when its first len(Prefix)
// coordinates match Prefix and, for every k, t[len(Prefix)+k] lies in
// the closed range Dims[k]. Trailing positions beyond the box are
// implicit wildcards, exactly as for Constraint.
//
// A one-dimensional box is the closed-range form of an ordinary
// interval constraint; InsBox delegates that case to InsConstraint, so
// stored boxes always span at least two positions. This is the box
// form of the certificate from "Box Covers and Domain Orderings" /
// "Joins via Geometric Resolutions": one box replaces the
// per-value family of interval constraints an interval-only CDS
// derives across the box's earlier dimensions.
type BoxConstraint struct {
	Prefix Pattern
	Dims   []ordered.Range
}

// Empty reports whether the box rules out no tuple.
func (b BoxConstraint) Empty() bool {
	if len(b.Dims) == 0 {
		return true
	}
	for _, d := range b.Dims {
		if d.Empty() {
			return true
		}
	}
	return false
}

// Covers reports whether the tuple (its first len(Prefix)+len(Dims)
// coordinates) is ruled out by the box.
func (b BoxConstraint) Covers(t []int) bool {
	if len(t) < len(b.Prefix)+len(b.Dims) {
		return false
	}
	if !b.Prefix.Matches(t[:len(b.Prefix)]) {
		return false
	}
	for k, d := range b.Dims {
		if !d.Contains(t[len(b.Prefix)+k]) {
			return false
		}
	}
	return true
}

func (b BoxConstraint) String() string {
	parts := make([]string, len(b.Dims))
	for i, d := range b.Dims {
		parts[i] = d.String()
	}
	return fmt.Sprintf("%s%s", b.Prefix, strings.Join(parts, "x"))
}

// closedToOpenLo / closedToOpenHi convert a closed range endpoint to the
// equivalent open-interval endpoint, keeping the ±∞ sentinels in place.
func closedToOpenLo(lo int) int {
	if lo <= ordered.NegInf {
		return ordered.NegInf
	}
	return lo - 1
}

func closedToOpenHi(hi int) int {
	if hi >= ordered.PosInf {
		return ordered.PosInf
	}
	return hi + 1
}

// boxNode is one stored box: an arena slot holding the interned prefix
// and interned dimension ranges. Boxes are indexed by the GAO position
// of their last dimension (the only level at which they can advance a
// probe point).
type boxNode struct {
	prefix Pattern
	dims   []ordered.Range
}

func (v *boxNode) covers(tuple []int) bool {
	if len(tuple) < len(v.prefix)+len(v.dims) {
		return false
	}
	if !v.prefix.Matches(tuple[:len(v.prefix)]) {
		return false
	}
	for k, d := range v.dims {
		if !d.Contains(tuple[len(v.prefix)+k]) {
			return false
		}
	}
	return true
}

// window returns the set of values at GAO position pos for which the
// box is applicable: the dimension range when pos lies inside the box,
// the pinned value for a prefix equality, everything for a wildcard.
func (v *boxNode) window(pos int) ordered.Range {
	if pos < len(v.prefix) {
		c := v.prefix[pos]
		if c.Star {
			return ordered.Range{Lo: ordered.NegInf, Hi: ordered.PosInf}
		}
		return ordered.Range{Lo: c.Val, Hi: c.Val}
	}
	return v.dims[pos-len(v.prefix)]
}

// rangeChunkSize is the range-arena granularity (in ranges).
const rangeChunkSize = 256

// boxShape is the applicability signature of a box prefix: its length
// and the bitmask of pinned (Eq) positions. Boxes sharing a shape and
// the same pinned values land in one boxBucket, so activeBoxes can find
// every candidate with one hash lookup per distinct shape instead of a
// scan over all stored boxes. Prefixes longer than 64 positions (never
// seen in practice — GAO arity is small) fall back to a linear overflow
// list.
type boxShape struct {
	plen int
	mask uint64
}

// boxKey identifies one bucket: a shape plus the hash of the pinned
// prefix values. Hash collisions are harmless — candidates are
// re-verified with prefix.Matches before use.
type boxKey struct {
	sh boxShape
	h  uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h uint64, v int) uint64 {
	h ^= uint64(v)
	return h * fnvPrime64
}

// hashPrefix / hashTuple hash the pinned positions of a box prefix /
// the corresponding coordinates of a probe tuple; a box is applicable
// only under tuples hashing identically.
func (sh boxShape) hashPrefix(p Pattern) uint64 {
	h := uint64(fnvOffset64)
	for j := 0; j < sh.plen; j++ {
		if sh.mask&(1<<uint(j)) != 0 {
			h = fnvMix(h, p[j].Val)
		}
	}
	return h
}

func (sh boxShape) hashTuple(tv []int) uint64 {
	h := uint64(fnvOffset64)
	for j := 0; j < sh.plen; j++ {
		if sh.mask&(1<<uint(j)) != 0 {
			h = fnvMix(h, tv[j])
		}
	}
	return h
}

func eqMask(p Pattern) (uint64, bool) {
	if len(p) > 64 {
		return 0, false
	}
	var m uint64
	for j, c := range p {
		if !c.Star {
			m |= 1 << uint(j)
		}
	}
	return m, true
}

// boxBucket holds the boxes of one (shape, pinned-values) class, sorted
// ascending by their first middle-dimension Lo, with maxHi[j] the
// running maximum of dims[0].Hi over boxes[0..j]. The pair supports
// stabbing queries — all boxes whose dims[0] contains a value — in
// O(log n + answers): binary-search the last Lo ≤ x, then walk left
// while the running max still reaches x.
type boxBucket struct {
	boxes []*boxNode
	maxHi []int
}

// insert places v into the bucket keeping the sort and running max.
func (bk *boxBucket) insert(v *boxNode) {
	lo := v.dims[0].Lo
	pos := sort.Search(len(bk.boxes), func(j int) bool { return bk.boxes[j].dims[0].Lo > lo })
	bk.boxes = append(bk.boxes, nil)
	copy(bk.boxes[pos+1:], bk.boxes[pos:])
	bk.boxes[pos] = v
	bk.maxHi = append(bk.maxHi, 0)
	for j := pos; j < len(bk.boxes); j++ {
		hi := bk.boxes[j].dims[0].Hi
		if j > 0 && bk.maxHi[j-1] > hi {
			hi = bk.maxHi[j-1]
		}
		bk.maxHi[j] = hi
	}
}

// removeAt deletes the box at index j, keeping the sort and running max,
// and returns it.
func (bk *boxBucket) removeAt(j int) *boxNode {
	v := bk.boxes[j]
	bk.boxes = append(bk.boxes[:j], bk.boxes[j+1:]...)
	bk.maxHi = bk.maxHi[:len(bk.maxHi)-1]
	for i := j; i < len(bk.boxes); i++ {
		hi := bk.boxes[i].dims[0].Hi
		if i > 0 && bk.maxHi[i-1] > hi {
			hi = bk.maxHi[i-1]
		}
		bk.maxHi[i] = hi
	}
	return v
}

// internRanges copies dims into the tree-owned range arena and returns
// the durable copy; chunks are never reallocated once handed out, so
// previously interned slices stay valid for the life of the tree.
func (t *Tree) internRanges(dims []ordered.Range) []ordered.Range {
	if t.rangeIdx == len(t.rangeChunks) {
		size := rangeChunkSize
		if len(dims) > size {
			size = len(dims)
		}
		t.rangeChunks = append(t.rangeChunks, make([]ordered.Range, 0, size))
	}
	cur := t.rangeChunks[t.rangeIdx]
	if cap(cur)-len(cur) < len(dims) {
		t.rangeIdx++
		return t.internRanges(dims)
	}
	start := len(cur)
	cur = append(cur, dims...)
	t.rangeChunks[t.rangeIdx] = cur
	return cur[start:len(cur):len(cur)]
}

// InsBox inserts a box constraint. Empty boxes are dropped;
// one-dimensional boxes delegate to InsConstraint (they are plain
// interval constraints); a box subsumed dimension-wise by an
// already-stored box with the same prefix is dropped. Like
// InsConstraint, neither the Prefix nor the Dims slice is retained —
// callers may reuse their buffers. On the steady-state path the call
// performs zero allocations.
func (t *Tree) InsBox(b BoxConstraint) {
	if len(b.Prefix)+len(b.Dims) > t.n {
		panic("cds: box constraint extends past attribute count")
	}
	if b.Empty() {
		return
	}
	if len(b.Dims) == 1 {
		d := b.Dims[0]
		t.InsConstraint(Constraint{Prefix: b.Prefix, Lo: closedToOpenLo(d.Lo), Hi: closedToOpenHi(d.Hi)})
		return
	}
	last := len(b.Prefix) + len(b.Dims) - 1
	mask, ok := eqMask(b.Prefix)
	if !ok {
		// Oversized prefix: linear overflow path.
		for _, v := range t.boxOverflow[last] {
			t.countOp()
			if boxSubsumes(v, b) {
				return
			}
		}
		for _, v := range t.boxOverflow[last] {
			t.countOp()
			if boxMergeable(v, b) {
				mergeDim0(v, b.Dims[0])
				return
			}
		}
		v := t.storeBox(b, last)
		t.boxOverflow[last] = append(t.boxOverflow[last], v)
		return
	}
	sh := boxShape{plen: len(b.Prefix), mask: mask}
	key := boxKey{sh: sh, h: sh.hashPrefix(b.Prefix)}
	if t.boxKeyIdx[last] == nil {
		t.boxKeyIdx[last] = make(map[boxKey]int)
	}
	bi, seen := t.boxKeyIdx[last][key]
	if !seen {
		shapeKnown := false
		for _, s := range t.boxShapesAt[last] {
			if s == sh {
				shapeKnown = true
				break
			}
		}
		if !shapeKnown {
			t.boxShapesAt[last] = append(t.boxShapesAt[last], sh)
		}
		bi = len(t.boxBuckets[last])
		if bi < cap(t.boxBuckets[last]) {
			// A bucket emptied by Reset: re-slice so its boxes/maxHi
			// slices keep their capacity.
			t.boxBuckets[last] = t.boxBuckets[last][:bi+1]
		} else {
			t.boxBuckets[last] = append(t.boxBuckets[last], boxBucket{})
		}
		t.boxKeyIdx[last][key] = bi
	}
	bk := &t.boxBuckets[last][bi]
	// A subsuming box must contain b.Dims[0].Lo in its first middle
	// dimension, so a stab query bounds the subsumption scan.
	x := b.Dims[0].Lo
	idx := sort.Search(len(bk.boxes), func(j int) bool { return bk.boxes[j].dims[0].Lo > x })
	for j := idx - 1; j >= 0 && bk.maxHi[j] >= x; j-- {
		v := bk.boxes[j]
		t.countOp()
		if boxSubsumes(v, b) {
			return
		}
	}
	// Merge: a stored box with the same prefix and identical trailing
	// dimensions whose first middle dimension overlaps or abuts b's
	// absorbs b in place — the union of two such rectangles is itself a
	// rectangle, so a widening streak grows one stored box instead of
	// accumulating one per widening. The stab range is widened by one on
	// each side to catch exactly-adjacent neighbors.
	xlo := b.Dims[0].Lo
	if xlo > ordered.NegInf {
		xlo--
	}
	xhi := b.Dims[0].Hi
	if xhi < ordered.PosInf {
		xhi++
	}
	idx = sort.Search(len(bk.boxes), func(j int) bool { return bk.boxes[j].dims[0].Lo > xhi })
	for j := idx - 1; j >= 0 && bk.maxHi[j] >= xlo; j-- {
		v := bk.boxes[j]
		t.countOp()
		if v.dims[0].Hi < xlo || !boxMergeable(v, b) {
			continue
		}
		v = bk.removeAt(j)
		mergeDim0(v, b.Dims[0])
		bk.insert(v)
		return
	}
	v := t.storeBox(b, last)
	bk.insert(v)
}

// boxMergeable reports whether stored box v and candidate b combine into
// a single rectangle: identical prefix, identical trailing dimensions,
// and first middle dimensions that overlap or abut, so the union of the
// two closed ranges is one closed range and the merged box rules out
// exactly the union of the two.
func boxMergeable(v *boxNode, b BoxConstraint) bool {
	if len(v.dims) != len(b.Dims) || len(v.prefix) != len(b.Prefix) || !patternsEqual(v.prefix, b.Prefix) {
		return false
	}
	for k := 1; k < len(b.Dims); k++ {
		if v.dims[k] != b.Dims[k] {
			return false
		}
	}
	lo := v.dims[0].Lo
	if lo > ordered.NegInf {
		lo--
	}
	hi := v.dims[0].Hi
	if hi < ordered.PosInf {
		hi++
	}
	return b.Dims[0].Lo <= hi && b.Dims[0].Hi >= lo
}

// mergeDim0 widens v's first middle dimension to the union with d. The
// dims slice is an arena region owned by v alone, so the extension is
// visible to every index that points at v without re-interning.
func mergeDim0(v *boxNode, d ordered.Range) {
	if d.Lo < v.dims[0].Lo {
		v.dims[0].Lo = d.Lo
	}
	if d.Hi > v.dims[0].Hi {
		v.dims[0].Hi = d.Hi
	}
}

// boxSubsumes reports whether stored box v rules out everything the
// candidate b would: identical prefix and dimension-wise containment.
func boxSubsumes(v *boxNode, b BoxConstraint) bool {
	if len(v.prefix) != len(b.Prefix) || !patternsEqual(v.prefix, b.Prefix) {
		return false
	}
	for k, d := range b.Dims {
		if v.dims[k].Intersect(d) != d {
			return false
		}
	}
	return true
}

// storeBox interns the box into the arena and registers it in the flat
// per-position list (Dump / BoxCount iterate it).
func (t *Tree) storeBox(b BoxConstraint, last int) *boxNode {
	v := t.boxes.Alloc()
	v.prefix = t.internPattern(b.Prefix)
	v.dims = t.internRanges(b.Dims)
	t.boxByLast[last] = append(t.boxByLast[last], v)
	if t.stats != nil {
		t.stats.Boxes++
	}
	return v
}

// BoxCount returns the number of stored (multi-dimensional) boxes.
func (t *Tree) BoxCount() int {
	n := 0
	for _, list := range t.boxByLast {
		n += len(list)
	}
	return n
}

// activeBoxes collects, into tree scratch, the stored boxes whose last
// dimension lies at GAO position i and which are applicable under the
// current probe prefix t.tv[:i]: the prefix pattern matches and every
// earlier dimension range contains its prefix coordinate. The returned
// slice is valid until the next call.
//
// The lookup is sublinear in the number of stored boxes: one bucket
// lookup per distinct prefix shape (hash of the pinned prefix values),
// then a stab query over the bucket's first-middle-dimension sort for
// the boxes whose dims[0] contains the probe coordinate. Only those
// candidates are verified in full.
func (t *Tree) activeBoxes(i int) []*boxNode {
	if len(t.boxByLast[i]) == 0 {
		return nil
	}
	out := t.boxScratch[:0]
	tv := t.tv
	for _, sh := range t.boxShapesAt[i] {
		t.countOp()
		bi, ok := t.boxKeyIdx[i][boxKey{sh: sh, h: sh.hashTuple(tv)}]
		if !ok {
			continue
		}
		bk := &t.boxBuckets[i][bi]
		x := tv[sh.plen] // the first middle-dimension coordinate
		idx := sort.Search(len(bk.boxes), func(j int) bool { return bk.boxes[j].dims[0].Lo > x })
		for j := idx - 1; j >= 0 && bk.maxHi[j] >= x; j-- {
			v := bk.boxes[j]
			t.countOp()
			if v.dims[0].Hi < x {
				continue
			}
			if !v.prefix.Matches(tv[:len(v.prefix)]) {
				continue // hash collision
			}
			ok := true
			for k := 1; k < len(v.dims)-1; k++ {
				if !v.dims[k].Contains(tv[len(v.prefix)+k]) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, v)
			}
		}
	}
	for _, v := range t.boxOverflow[i] {
		t.countOp()
		if !v.prefix.Matches(tv[:len(v.prefix)]) {
			continue
		}
		ok := true
		for k := 0; k < len(v.dims)-1; k++ {
			if !v.dims[k].Contains(tv[len(v.prefix)+k]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	t.boxScratch = out
	return out
}

// boxAdvance returns the smallest y ≥ val not covered by the last
// dimension of any active box, counting one BoxSkip per box jumped
// over. Runs to a fixpoint over the (small) active set.
func (t *Tree) boxAdvance(val int, act []*boxNode) int {
	for {
		advanced := false
		for _, v := range act {
			t.countOp()
			d := v.dims[len(v.dims)-1]
			if d.Contains(val) {
				if t.stats != nil {
					t.stats.BoxSkips++
				}
				if d.Hi >= ordered.PosInf {
					return ordered.PosInf
				}
				val = d.Hi + 1
				advanced = true
			}
		}
		if !advanced || val >= ordered.PosInf {
			return val
		}
	}
}

// boxResolve is the geometric-resolution step of the backtrack: it
// re-proves that level i admits no value, and returns the applicability
// rectangle of the proof — for every position j < i, the intersection
// A_j of the contributing constraints' windows at j. Every tuple prefix
// inside A_0×…×A_{i-1} leads to the same covered level, so the caller
// rules out the whole rectangle with one derived box instead of one
// value per probe. The rectangle always contains t.tv[:i] because every
// active box and filter node matched the current prefix.
//
// Generality matters for termination: a proof pinned to the current
// prefix re-derives itself for every sibling value, so each round
// consults the most general contributors first — boxes, then all-star
// filter nodes — and falls back to prefix-pinned filter nodes (whose Eq
// components collapse A_j to a point) only when nothing else covers the
// current value. The dims slice is tree scratch, valid until the next
// call; InsBox interns what it keeps.
func (t *Tree) boxResolve(i int, g []*node, act []*boxNode) ([]ordered.Range, bool) {
	if cap(t.resolveDims) < t.n {
		t.resolveDims = make([]ordered.Range, t.n)
	}
	dims := t.resolveDims[:i]
	for j := range dims {
		dims[j] = ordered.Range{Lo: ordered.NegInf, Hi: ordered.PosInf}
	}
	meet := func(v *boxNode) {
		for j := 0; j < i; j++ {
			dims[j] = dims[j].Intersect(v.window(j))
		}
	}
	pin := func(u *node) {
		for j := 0; j < i; j++ {
			if c := u.pattern[j]; !c.Star {
				dims[j] = dims[j].Intersect(ordered.Range{Lo: c.Val, Hi: c.Val})
			}
		}
	}
	y := -1
	for y < ordered.PosInf {
		advanced := false
		for _, v := range act {
			t.countOp()
			d := v.dims[len(v.dims)-1]
			if d.Contains(y) {
				meet(v)
				if d.Hi >= ordered.PosInf {
					return dims, true
				}
				y = d.Hi + 1
				advanced = true
			}
		}
		if !advanced {
			for _, u := range g {
				if u.pattern.EqCount() > 0 {
					continue
				}
				t.countOp()
				if ny := u.intervals.Next(y); ny > y {
					y = ny
					advanced = true
				}
			}
		}
		if !advanced {
			for _, u := range g {
				if u.pattern.EqCount() == 0 {
					continue
				}
				t.countOp()
				if ny := u.intervals.Next(y); ny > y {
					pin(u)
					y = ny
					advanced = true
				}
			}
		}
		if !advanced {
			return dims, false
		}
	}
	return dims, true
}

// eqPrefix builds, in tree scratch, the fully-specific pattern
// Eq(tv[0])…Eq(tv[n-1]). InsConstraint interns its prefix, so the
// scratch is safe to reuse.
func (t *Tree) eqPrefix(n int) Pattern {
	p := t.eqBuf[:n]
	for j := 0; j < n; j++ {
		p[j] = Eq(t.tv[j])
	}
	return p
}
