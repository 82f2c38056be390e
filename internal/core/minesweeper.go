package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"minesweeper/internal/arena"
	"minesweeper/internal/cds"
	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

// MinesweeperStreamContext evaluates the join with Algorithm 2 of the
// paper, calling emit for every output tuple; emit returns false to stop
// after the current tuple. The stats receiver may be nil. Probe points
// come from the ConstraintTree CDS, whose chain-based getProbePoint is
// near-optimal for β-acyclic GAOs (Theorem 2.7) and falls back to the
// shadow-chain walk for general GAOs (Theorem 5.1).
//
// Because Minesweeper discovers outputs as it probes (it never builds
// intermediate results), stopping after k tuples costs only the work
// for those k outputs plus the constraints learned so far — the anytime
// behaviour that worst-case-optimal algorithms lack. Probe points arrive
// in increasing lexicographic order (GetProbePoint always returns the
// smallest active point and the ruled-out region only grows), so output
// tuples stream in GAO-lexicographic order. An output probe point t is
// followed by a walk of the GAO's product suffix, the levels from
// k = Problem.SuffixFrom() on: the outputs sharing t's prefix t[:k] are
// the product of the suffix atoms' sibling runs, with the leapfrog
// intersection of the atoms ending on the last level innermost, so they
// cost no probe point and no {ℓ,h} sweep, and one constraint
// ⟨t[0],…,t[k−1],(t[k]−1, +∞)⟩ rules the whole product out. The
// context is checked once per probe point (the outer loop of
// Algorithm 2), and before each further tuple and on each backtrack of
// a walk, and evaluation stops with ctx.Err() when it is cancelled or
// its deadline passes.
//
// Emitted tuples are owned by the receiver (they are never reused), and
// are block-allocated: retaining one keeps its whole block of up to
// arena.TupleBlock tuples reachable.
func MinesweeperStreamContext(ctx context.Context, p *Problem, stats *certificate.Stats, emit func([]int) bool) error {
	out := arena.Tuples{Width: len(p.GAO)}
	return minesweeperShared(ctx, p, stats, func(t []int) bool {
		return emit(out.Copy(t))
	})
}

// treePools holds per-arity free lists of CDS trees. A released tree
// keeps its node/pattern arenas and scratch buffers, so the warm path of
// a served workload re-runs the same query shape without rebuilding or
// reallocating its constraint store.
var treePools sync.Map // int (arity) -> *sync.Pool

func arityPool(n int) *sync.Pool {
	// Load-first: LoadOrStore's value argument is built eagerly, so
	// going through it on every call would allocate a discarded
	// sync.Pool on the warm path.
	if p, ok := treePools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := treePools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

func acquireTree(n int) *cds.Tree {
	if v := arityPool(n).Get(); v != nil {
		tr := v.(*cds.Tree)
		tr.Reset()
		return tr
	}
	return cds.NewTree(n)
}

func releaseTree(tr *cds.Tree) {
	tr.SetStats(nil)
	tr.SetTrace(nil)
	arityPool(tr.Attrs()).Put(tr)
}

// msScratch is the per-run working set of the outer algorithm, pooled
// across executions: the per-atom exploration trees and index-path
// buffers of Algorithm 2 lines 4–10, the shared constraint-prefix
// buffer (safe to reuse per insertion — InsConstraint never retains its
// input), and the suffix walk's run ends, last-level cursors and emitted
// tuple. Steady-state executions allocate nothing from here.
type msScratch struct {
	expl   []*gapNode
	atoms  []atomScratch
	prefix cds.Pattern
	ends   []int
	runs   []lastRun
	out    []int
}

var scratchPool = sync.Pool{New: func() any { return &msScratch{} }}

func (sc *msScratch) prepare(p *Problem, n int) {
	if cap(sc.expl) < len(p.Atoms) {
		sc.expl = make([]*gapNode, len(p.Atoms))
		sc.atoms = make([]atomScratch, len(p.Atoms))
	}
	sc.expl = sc.expl[:len(p.Atoms)]
	sc.atoms = sc.atoms[:len(p.Atoms)]
	for i := range p.Atoms {
		k := p.Atoms[i].Tree.Arity()
		if cap(sc.atoms[i].idx) < k {
			sc.atoms[i].idx = make([]int, 0, k)
			sc.atoms[i].pathVals = make([]int, 0, k)
			sc.atoms[i].widx = make([]int, 0, k)
			sc.atoms[i].walk = make([]int, k)
		}
		if cap(sc.atoms[i].dims) < n {
			sc.atoms[i].dims = make([]ordered.Range, 0, n)
		}
		sc.atoms[i].lastDepth = -1
		sc.atoms[i].lastLo = 0
		sc.atoms[i].lastHi = 0
		sc.atoms[i].streak = 0
	}
	if cap(sc.prefix) < n-1 {
		sc.prefix = make(cds.Pattern, n-1)
	}
	sc.prefix = sc.prefix[:n-1]
	if cap(sc.out) < n {
		sc.out = make([]int, n)
		sc.ends = make([]int, n)
	}
	sc.out = sc.out[:n]
	sc.ends = sc.ends[:n]
}

// release returns the scratch to its pool, dropping the last walk's
// references into index levels so a pooled scratch never keeps a
// replaced index alive.
func (sc *msScratch) release() {
	clear(sc.runs[:cap(sc.runs)])
	scratchPool.Put(sc)
}

// minesweeperShared is the engine core. emit receives the CDS probe
// scratch directly — valid only until emit returns — so materializing
// callers go through a copying wrapper (MinesweeperStreamContext).
//
// With p.Debug set, every emitted tuple must be strictly GAO-lex greater
// than the one before it, or the run stops with an error: a constraint
// that covers too little lets a later probe re-emit a tuple.
func minesweeperShared(ctx context.Context, p *Problem, stats *certificate.Stats, emit func([]int) bool) error {
	n := len(p.GAO)
	tree := acquireTree(n)
	defer releaseTree(tree)
	tree.SetStats(stats)
	p.Attach(stats)
	defer p.Detach()

	sc := scratchPool.Get().(*msScratch)
	defer sc.release()
	sc.prepare(p, n)
	seedBounds(tree, p.Bounds, sc.prefix)

	if !p.Debug {
		return sweep(ctx, p, tree, sc, stats, emit)
	}
	var unordered error
	err := sweep(ctx, p, tree, sc, stats, ascending(emit, &unordered))
	if unordered != nil {
		return unordered
	}
	return err
}

// ascending passes tuples on to emit while each is strictly GAO-lex
// greater than the one before it; the first that is not stops the run
// and is reported in *bad.
func ascending(emit func([]int) bool, bad *error) func([]int) bool {
	var prev []int
	return func(t []int) bool {
		if prev != nil && slices.Compare(prev, t) >= 0 {
			*bad = fmt.Errorf("core: emitted %v after %v — the stream is not strictly GAO-lex ascending", t, prev)
			return false
		}
		prev = append(prev[:0], t...)
		return emit(t)
	}
}

// sweep is Algorithm 2's outer loop over the CDS tree's probe points.
func sweep(ctx context.Context, p *Problem, tree *cds.Tree, sc *msScratch, stats *certificate.Stats, emit func([]int) bool) error {
	for t := tree.GetProbePoint(); t != nil; t = tree.GetProbePoint() {
		if err := ctx.Err(); err != nil {
			return err
		}
		output := true
		for i := range p.Atoms {
			sc.expl[i] = exploreAtom(&p.Atoms[i], t, &sc.atoms[i])
			if !sc.expl[i].allHighMatch {
				output = false
			}
		}
		if output {
			if stats != nil {
				stats.Outputs++
			}
			if !emit(t) {
				return nil
			}
			if keep, err := walkSuffix(ctx, p, sc, t, stats, emit); err != nil || !keep {
				return err
			}
			// An output breaks every widening streak: a gap re-found on
			// both sides of a walk is not the empty-rectangle grind that
			// noteGap looks for.
			for i := range sc.atoms {
				sc.atoms[i].lastDepth = -1
			}
			// The walk emitted every output above t under t[:k], so one
			// constraint rules the rest of that prefix out:
			// ⟨t[0],…,t[k−1],(t[k]−1, +∞)⟩.
			k := p.suffix.from
			prefix := sc.prefix[:k]
			for j := range prefix {
				prefix[j] = cds.Eq(t[j])
			}
			lo, _ := ruledOutInterval(t[k])
			tree.InsConstraint(cds.Constraint{Prefix: prefix, Lo: lo, Hi: ordered.PosInf})
			continue
		}
		// Insert every discovered gap (Algorithm 2 lines 15–20).
		covered := false
		for i := range p.Atoms {
			if insertGaps(tree, &p.Atoms[i], sc.expl[i], &sc.atoms[i], sc.prefix, p.Debug, !p.DisableBoxes, t) {
				covered = true
			}
		}
		if p.Debug && !covered {
			return fmt.Errorf("core: probe point %v not covered by any discovered gap — Minesweeper would not terminate", t)
		}
	}
	return nil
}

// lastRun is one atom's cursor over the last-level sibling run that a
// walk intersects: vals[pos] is the current value, end bounds the run.
type lastRun struct {
	vals     []int
	pos, end int
}

// walkSuffix emits the outputs that follow the output probe point t
// under its prefix t[:k], k = p.SuffixFrom(). Every level from k to n−2
// is held by one atom, the atoms that stop above k are satisfied by the
// prefix alone, and so is every CDS constraint below t (t is the
// smallest active point, and the gaps the CDS holds rule out no output).
// The outputs are therefore the tuples of nested loops over the owners'
// sibling runs, level k outermost, with the leapfrog intersection of the
// last-level runs of the atoms ending on level n−1 innermost, every
// level clipped to its bound: exactly the outputs Algorithm 2 would
// otherwise find one probe point and one {ℓ,h} sweep each. The loops
// resume from t's own index paths, so tuples come in GAO-lex order
// from t on. A level whose run holds nothing within its bound sends the
// walk back to the level that run hangs under (suffixPlan.back), past
// the levels between, which it does not depend on. Tuples are emitted
// from scratch, never t itself. ctx is checked before each of them and
// on each backtrack, so a subtree without outputs does not outlast it.
// The walk ends when the loops are exhausted, or early when emit
// returns false (keep is false) or ctx is done (its error is returned) —
// the run stops there too.
func walkSuffix(ctx context.Context, p *Problem, sc *msScratch, t []int, stats *certificate.Stats, emit func([]int) bool) (keep bool, err error) {
	n, k := len(t), p.suffix.from
	sp := &p.suffix
	// Resolve each suffix atom's exact index path: every node of an
	// output's exploration holds its child index in lo (== hi).
	for _, i := range sp.atoms {
		a := &p.Atoms[i]
		path := sc.atoms[i].walk
		nd := sc.expl[i]
		for d := range a.Positions {
			lo, _ := runAt(a.Tree, d, path)
			path[d] = lo + nd.lo
			nd = nd.hiChild
		}
	}
	for j := k; j < n-1; j++ {
		i := sp.owner[j-k]
		_, sc.ends[j] = runAt(p.Atoms[i].Tree, sp.depth[j-k], sc.atoms[i].walk)
	}
	runs := sc.runs[:0]
	for _, i := range sp.lastAtoms {
		a := &p.Atoms[i]
		d := len(a.Positions) - 1
		_, end := runAt(a.Tree, d, sc.atoms[i].walk)
		runs = append(runs, lastRun{vals: a.Tree.Level(d), pos: sc.atoms[i].walk[d], end: end})
	}
	sc.runs = runs
	copy(sc.out, t)
	var steps int64
	defer func() {
		if stats != nil {
			stats.Comparisons += steps
		}
	}()
	for j := n - 1; j >= k; {
		// A backtrack may leave a subtree that held no output, so ctx is
		// checked here as well as before each tuple.
		if j < n-1 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if !sc.next(p, j, &steps) {
			j--
			continue
		}
		for j < n-1 && sc.open(p, j+1, &steps) {
			j++
		}
		if j < n-1 {
			j = sp.back[j+1-k]
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if stats != nil {
			stats.Outputs++
		}
		if !emit(sc.out) {
			return false, nil
		}
	}
	return true, nil
}

// runAt returns the range [lo, hi) of tr.Level(d) holding the sibling
// run under the index path's entry at depth d−1 (the view's top run at
// depth 0).
func runAt(tr *reltree.Tree, d int, path []int) (lo, hi int) {
	if d == 0 {
		return tr.Top()
	}
	return tr.Children(d-1, path[d-1])
}

// next steps level j of a walk to the next value of its run, false when
// the run holds none within the level's bound. On the last level it
// steps the first cursor past the last output and leapfrogs.
func (sc *msScratch) next(p *Problem, j int, steps *int64) bool {
	*steps++
	if j == len(sc.out)-1 {
		r := &sc.runs[0]
		r.pos++
		return r.pos < r.end && sc.meet(p, steps)
	}
	sp := &p.suffix
	i, d := sp.owner[j-sp.from], sp.depth[j-sp.from]
	path := sc.atoms[i].walk
	path[d]++
	return path[d] < sc.ends[j] && sc.take(p, j, p.Atoms[i].Tree.Level(d)[path[d]])
}

// open starts level j of a walk on the run its owner's current path
// reaches, at the first value within the level's bound, false when
// there is none. On the last level it starts every cursor and
// leapfrogs.
func (sc *msScratch) open(p *Problem, j int, steps *int64) bool {
	lo := 0
	if p.Bounds != nil {
		lo = p.Bounds[j].Lo
	}
	sp := &p.suffix
	if j < len(sc.out)-1 {
		i, d := sp.owner[j-sp.from], sp.depth[j-sp.from]
		tr, path := p.Atoms[i].Tree, sc.atoms[i].walk
		vals := tr.Level(d)
		pos, end := runAt(tr, d, path)
		pos = seekFrom(vals, pos, end, lo, steps)
		path[d], sc.ends[j] = pos, end
		return pos < end && sc.take(p, j, vals[pos])
	}
	for x, i := range sp.lastAtoms {
		a := &p.Atoms[i]
		r := &sc.runs[x]
		r.pos, r.end = runAt(a.Tree, len(a.Positions)-1, sc.atoms[i].walk)
	}
	r := &sc.runs[0]
	r.pos = seekFrom(r.vals, r.pos, r.end, lo, steps)
	return r.pos < r.end && sc.meet(p, steps)
}

// meet leapfrogs the last-level cursors up from the first one's value
// to the next value they all hold, and takes it.
func (sc *msScratch) meet(p *Problem, steps *int64) bool {
	runs := sc.runs
	v := runs[0].vals[runs[0].pos]
	for i, agree := 1%len(runs), 1; agree < len(runs); i = (i + 1) % len(runs) {
		r := &runs[i]
		r.pos = seekRun(r.vals, r.pos, r.end, v, steps)
		if r.pos >= r.end {
			return false
		}
		if w := r.vals[r.pos]; w > v {
			v, agree = w, 1
		} else {
			agree++
		}
	}
	return sc.take(p, len(sc.out)-1, v)
}

// take sets level j of the walk's tuple to v, false when v lies above
// the level's bound (and every later value of the run with it).
func (sc *msScratch) take(p *Problem, j, v int) bool {
	if p.Bounds != nil && v > p.Bounds[j].Hi {
		return false
	}
	sc.out[j] = v
	return true
}

// seekRun returns the first position in [pos, end) of the sorted vals
// holding a value ≥ v (end when none does): a gallop from pos, then a
// binary search, adding each comparison to *steps.
func seekRun(vals []int, pos, end, v int, steps *int64) int {
	lo, hi := pos, pos+1
	for hi < end && vals[hi-1] < v {
		*steps++
		lo = hi
		hi = pos + 2*(hi-pos)
	}
	if hi > end {
		hi = end
	}
	for lo < hi {
		*steps++
		m := int(uint(lo+hi) >> 1)
		if vals[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// seekFrom is seekRun, except that it takes no step when the run
// already starts at a value ≥ v.
func seekFrom(vals []int, pos, end, v int, steps *int64) int {
	if pos < end && vals[pos] < v {
		return seekRun(vals, pos, end, v, steps)
	}
	return pos
}

// seedBounds pushes per-position value bounds into the CDS before the
// first probe: for a position restricted to [Lo, Hi], the open intervals
// (−∞, Lo) and (Hi, +∞) under the all-wildcard prefix rule out every
// disallowed value, so probe points — and therefore all index
// exploration work — never leave the selected region. This is what
// makes a constant-selective query cost work proportional to its
// selectivity instead of the full join. prefixBuf is scratch of length
// ≥ len(bounds)-1 (InsConstraint never retains its input).
func seedBounds(tree *cds.Tree, bounds []Bound, prefixBuf cds.Pattern) {
	if bounds == nil {
		return
	}
	for i, b := range bounds {
		if b.Full() {
			continue
		}
		prefix := prefixBuf[:i]
		for j := range prefix {
			prefix[j] = cds.Star
		}
		if b.Lo > 0 {
			tree.InsConstraint(cds.Constraint{Prefix: prefix, Lo: ordered.NegInf, Hi: b.Lo})
		}
		if b.Hi < ordered.PosInf-1 {
			tree.InsConstraint(cds.Constraint{Prefix: prefix, Lo: b.Hi, Hi: ordered.PosInf})
		}
	}
}

// ruledOutInterval returns the open interval (lo, hi) that rules out
// exactly the value v of an emitted tuple's last coordinate. The naive
// (v-1, v+1) overflows when v sits at the int extremes, so endpoints
// are clamped to the ±∞ sentinels: values at or beyond a sentinel keep
// the sentinel itself as that endpoint, which still covers v because
// the CDS treats sentinel endpoints as unbounded.
func ruledOutInterval(v int) (lo, hi int) {
	if v < ordered.NegInf {
		v = ordered.NegInf
	}
	if v > ordered.PosInf {
		v = ordered.PosInf
	}
	lo, hi = ordered.NegInf, ordered.PosInf
	if v > ordered.NegInf {
		lo = v - 1
	}
	if v < ordered.PosInf {
		hi = v + 1
	}
	return lo, hi
}

// gapNode is the exploration tree of one atom around the current probe
// point: node at depth p holds the FindGap result for the index prefix
// reached by one of the {ℓ,h}^p vectors of Algorithm 2. When lo == hi the
// ℓ- and h-branches coincide and are shared. Nodes live in the per-atom
// arena and are recycled every probe iteration.
type gapNode struct {
	lo, hi       int
	loVal, hiVal int
	loChild      *gapNode
	hiChild      *gapNode
	allHighMatch bool // all-h path below (and including) this level hits t exactly
}

// atomScratch is the reusable exploration state of one atom: the index
// path of the current {ℓ,h} vector, the value path used when emitting
// constraints, and the gap-node arena (rewound every probe point, so
// one exploration allocates only when it outgrows every previous one).
// widx mirrors pathVals with child indexes during the constraint walk so
// box widening can enumerate siblings by index arithmetic; dims backs
// the box dimension ranges. lastDepth/lastLo/lastHi/streak implement the
// widening trigger: re-discovering the SAME gap on consecutive probes is
// the signature of a clustered grind (each probe advances one parent
// value into the same multi-value rectangle), so the streak of repeats
// gates widening and sets its sibling-scan allowance. Sparse workloads
// re-discover a gap essentially never, so they pay only the comparison.
type atomScratch struct {
	idx                               []int
	pathVals                          []int
	widx                              []int
	walk                              []int // the suffix walk's index path
	dims                              []ordered.Range
	lastDepth, lastLo, lastHi, streak int
	arena                             arena.Arena[gapNode]
}

// boxScanBase is the sibling-scan allowance (per direction) of the first
// widening in a streak; the allowance doubles with each further repeat,
// so a cluster of width W is covered by O(log W) widenings whose scans
// total O(W) FindGaps.
const boxScanBase = 8

// noteGap records a discovered gap and reports the scan allowance this
// streak has earned: 0 on first sight (no widening — one repeat must
// prove the grind before any sibling is probed).
func (sc *atomScratch) noteGap(p, loVal, hiVal int) int {
	if p != sc.lastDepth || loVal != sc.lastLo || hiVal != sc.lastHi {
		sc.lastDepth, sc.lastLo, sc.lastHi, sc.streak = p, loVal, hiVal, 0
		return 0
	}
	if sc.streak < 24 {
		sc.streak++
	}
	return boxScanBase << (sc.streak - 1)
}

// exploreAtom performs the {ℓ,h}^p FindGap sweep of Algorithm 2 lines
// 4–10 for one atom around probe point t, into the atom's scratch.
// The returned tree is valid until the atom's next exploration.
func exploreAtom(a *Atom, t []int, sc *atomScratch) *gapNode {
	sc.arena.Rewind()
	sc.idx = sc.idx[:0]
	return exploreRec(a, t, sc, 0)
}

func exploreRec(a *Atom, t []int, sc *atomScratch, p int) *gapNode {
	k := a.Tree.Arity()
	idx := sc.idx // current index prefix, length p; cap ≥ k, never moves
	target := t[a.Positions[p]]
	lo, hi := a.Tree.FindGap(idx, target)
	nd := sc.arena.Alloc()
	*nd = gapNode{} // arena slots are recycled, not zeroed
	nd.lo, nd.hi = lo, hi
	nd.loVal = a.Tree.Value(append(idx, lo))
	nd.hiVal = a.Tree.Value(append(idx, hi))
	exact := lo == hi // target present at this level
	if p == k-1 {
		nd.allHighMatch = exact
		return nd
	}
	if a.Tree.InRange(idx, lo) {
		sc.idx = append(idx, lo)
		nd.loChild = exploreRec(a, t, sc, p+1)
		sc.idx = idx
	}
	if exact {
		nd.hiChild = nd.loChild
	} else if a.Tree.InRange(idx, hi) {
		sc.idx = append(idx, hi)
		nd.hiChild = exploreRec(a, t, sc, p+1)
		sc.idx = idx
	}
	nd.allHighMatch = exact && nd.hiChild != nil && nd.hiChild.allHighMatch
	return nd
}

// insertGaps walks the exploration tree and inserts one constraint per
// node (Algorithm 2 lines 15–20): the pattern fixes the values along the
// index path at the atom's attribute positions, wildcards elsewhere, and
// the interval is the discovered gap at the next attribute position.
// The prefix buffer is reused per constraint (the CDS interns what it
// keeps). When debug is set it reports whether any inserted constraint
// covers the probe point t — the termination invariant. With boxes
// allowed, a gap found under an index path is widened across the
// parent's siblings into a box constraint when the same gap holds
// under them too (the common case on clustered composite indexes).
func insertGaps(tree *cds.Tree, a *Atom, root *gapNode, sc *atomScratch, prefixBuf cds.Pattern, debug, boxes bool, t []int) bool {
	sc.pathVals = sc.pathVals[:0]
	sc.widx = sc.widx[:0]
	return walkGaps(tree, a, root, 0, sc, prefixBuf, debug, boxes, t)
}

func walkGaps(tree *cds.Tree, a *Atom, nd *gapNode, p int, sc *atomScratch, prefixBuf cds.Pattern, debug, boxes bool, t []int) bool {
	if nd == nil {
		return false
	}
	covered := false
	if nd.loVal < nd.hiVal { // non-empty gap
		emitted := false
		if boxes && p > 0 {
			if scan := sc.noteGap(p, nd.loVal, nd.hiVal); scan > 0 {
				if b, ok := tryWidenBox(a, sc, p, nd.loVal, nd.hiVal, scan, prefixBuf); ok {
					if debug && b.Covers(t) {
						covered = true
					}
					tree.InsBox(b)
					emitted = true
				}
			}
		}
		if !emitted {
			prefixLen := a.Positions[p]
			prefix := prefixBuf[:prefixLen]
			for j := range prefix {
				prefix[j] = cds.Star
			}
			for j := 0; j < p; j++ {
				prefix[a.Positions[j]] = cds.Eq(sc.pathVals[j])
			}
			c := cds.Constraint{Prefix: prefix, Lo: nd.loVal, Hi: nd.hiVal}
			if debug && c.Covers(t) {
				covered = true
			}
			tree.InsConstraint(c)
		}
	}
	if p == a.Tree.Arity()-1 {
		return covered
	}
	if nd.loChild != nil && nd.loVal > ordered.NegInf {
		sc.pathVals = append(sc.pathVals, nd.loVal)
		sc.widx = append(sc.widx, nd.lo)
		if walkGaps(tree, a, nd.loChild, p+1, sc, prefixBuf, debug, boxes, t) {
			covered = true
		}
		sc.pathVals = sc.pathVals[:p]
		sc.widx = sc.widx[:p]
	}
	if nd.hiChild != nil && nd.hiChild != nd.loChild && nd.hiVal < ordered.PosInf {
		sc.pathVals = append(sc.pathVals, nd.hiVal)
		sc.widx = append(sc.widx, nd.hi)
		if walkGaps(tree, a, nd.hiChild, p+1, sc, prefixBuf, debug, boxes, t) {
			covered = true
		}
		sc.pathVals = sc.pathVals[:p]
		sc.widx = sc.widx[:p]
	}
	return covered
}

// tryWidenBox checks whether the gap (loVal, hiVal), discovered at atom
// level p under the index path sc.widx[:p], also holds under adjacent
// siblings of the level-(p-1) index, and if so returns the box ruling
// out the whole rectangle: the widened value range at the parent
// attribute × full ranges at the GAO positions the atom skips × the gap
// at the atom's level-p attribute. Each direction is validated with one
// reltree.GapRun — a single prefix descent that probes the siblings'
// contiguous sorted runs with seeded doubling searches and stops at the
// first sibling where the gap breaks — instead of one full FindGap per
// sibling, so a widening costs O(1) index descents regardless of how
// many siblings it absorbs. Values BETWEEN sibling values are absent
// from the atom under this path altogether, so the widened range runs
// from the nearest unverified neighbor on each side (exclusive) —
// exhausting a side extends it to ±∞. The validation is capped at
// `scan` siblings per direction (the streak allowance from noteGap),
// bounding the cost of one widening while letting a sustained grind
// earn exponentially wider boxes. The returned box (over scratch
// buffers; InsBox does not retain them) covers everything the classic
// per-path interval constraint would have, so the caller may emit it
// instead.
func tryWidenBox(a *Atom, sc *atomScratch, p int, loVal, hiVal, scan int, prefixBuf cds.Pattern) (cds.BoxConstraint, bool) {
	if ordered.OpenToRange(loVal, hiVal).Empty() {
		return cds.BoxConstraint{}, false
	}
	if loVal <= ordered.NegInf && hiVal >= ordered.PosInf {
		return cds.BoxConstraint{}, false
	}
	widx := sc.widx
	ci := widx[p-1]
	parent := widx[:p-1]
	fan := a.Tree.Fanout(parent)
	loC, hiC := ci, ci
	if up := fan - 1 - ci; up > 0 {
		if up > scan {
			up = scan
		}
		hiC += a.Tree.GapRun(parent, ci+1, ci+up, loVal, hiVal)
	}
	// Scan downward only on the streak's first widening: a continuation
	// widening sits just past the previous box of the same streak, so the
	// siblings below were already validated and covered by it — paying
	// index probes to re-include them buys nothing.
	downScan := scan
	if sc.streak > 1 {
		downScan = 0
	}
	if down := ci; down > 0 && downScan > 0 {
		if down > downScan {
			down = downScan
		}
		loC -= a.Tree.GapRun(parent, ci-1, ci-down, loVal, hiVal)
	}
	if loC == ci && hiC == ci {
		return cds.BoxConstraint{}, false
	}
	loNbr := a.Tree.Value(append(parent, loC-1))
	hiNbr := a.Tree.Value(append(parent, hiC+1))
	prefixLen := a.Positions[p-1]
	prefix := prefixBuf[:prefixLen]
	for j := range prefix {
		prefix[j] = cds.Star
	}
	for j := 0; j < p-1; j++ {
		prefix[a.Positions[j]] = cds.Eq(sc.pathVals[j])
	}
	span := a.Positions[p] - a.Positions[p-1] + 1
	dims := sc.dims[:span]
	dims[0] = ordered.OpenToRange(loNbr, hiNbr)
	for j := 1; j < span-1; j++ {
		dims[j] = ordered.Range{Lo: ordered.NegInf, Hi: ordered.PosInf}
	}
	dims[span-1] = ordered.OpenToRange(loVal, hiVal)
	return cds.BoxConstraint{Prefix: prefix, Dims: dims}, true
}

// MinesweeperAll runs Minesweeper and collects the output tuples.
func MinesweeperAll(p *Problem, stats *certificate.Stats) ([][]int, error) {
	var out [][]int
	err := MinesweeperStreamContext(context.Background(), p, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	return out, err
}
