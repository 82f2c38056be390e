package core

import (
	"context"
	"fmt"
	"slices"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

// triangleCDS is the constraint data structure of Appendix L for
// Q△ = R(A,B) ⋈ S(B,C) ⋈ T(A,C) under the GAO (A,B,C): the ordinary
// two-level lists for A and B constraints, with the ⟨*,b,(c1,c2)⟩
// constraints held in a dyadic tree over B whose nodes store C-interval
// lists satisfying I(*,x) = I(*,x∘0) ∩ I(*,x∘1); per-(a,node) caches
// memoize the NextUnion walks (Algorithm 10).
type triangleCDS struct {
	ia     *ordered.RangeSet         // ⟨(a1,a2),*,*⟩
	ibStar *ordered.RangeSet         // ⟨*,(b1,b2),*⟩
	ibEq   map[int]*ordered.RangeSet // ⟨a,(b1,b2),*⟩
	icEq   map[int]*ordered.RangeSet // ⟨a,*,(c1,c2)⟩
	dy     *ordered.DyadicTree       // ⟨*,b,(c1,c2)⟩
	// oob holds NextUnion caches for probe B-values outside the dyadic
	// key space (they occur only before the wildcard B-gaps arrive).
	oob   map[[2]int]int
	stats *certificate.Stats
}

func newTriangleCDS(maxB int, stats *certificate.Stats) *triangleCDS {
	return &triangleCDS{
		ia:     ordered.NewRangeSet(),
		ibStar: ordered.NewRangeSet(),
		ibEq:   map[int]*ordered.RangeSet{},
		icEq:   map[int]*ordered.RangeSet{},
		dy:     ordered.NewDyadicTree(maxB + 2),
		oob:    map[[2]int]int{},
		stats:  stats,
	}
}

func (c *triangleCDS) op() {
	if c.stats != nil {
		c.stats.CDSOps++
	}
}

func (c *triangleCDS) cons() {
	if c.stats != nil {
		c.stats.Constraints++
	}
}

func (c *triangleCDS) bEq(a int) *ordered.RangeSet {
	rs, ok := c.ibEq[a]
	if !ok {
		rs = ordered.NewRangeSet()
		c.ibEq[a] = rs
	}
	return rs
}

func (c *triangleCDS) cEq(a int) *ordered.RangeSet {
	rs, ok := c.icEq[a]
	if !ok {
		rs = ordered.NewRangeSet()
		c.icEq[a] = rs
	}
	return rs
}

// insertBStar records a wildcard B-interval ⟨*,(l,r),*⟩ and, per
// footnote 15 of the paper, marks the dyadic nodes inside it as fully
// covered so subtree pruning sees them.
func (c *triangleCDS) insertBStar(l, r int) {
	c.cons()
	c.ibStar.InsertOpen(l, r)
	rg := ordered.OpenToRange(l, r)
	c.dy.MarkKeyRangeFull(rg.Lo, rg.Hi)
}

// getProbePoint returns an active (a,b,c) or ok=false. The walk follows
// Algorithm 10: pick a, pick a candidate b from the B-lists, then descend
// the dyadic tree toward b's leaf, pruning any node whose C-space is
// exhausted (inserting the inferred constraint ⟨a, node-range, *⟩) and
// memoizing NextUnion progress per (a, node).
func (c *triangleCDS) getProbePoint() (a, b, cv int, ok bool) {
	for {
		c.op()
		a = c.ia.Next(-1)
		if a >= ordered.PosInf {
			return 0, 0, 0, false
		}
		bEq, cEq := c.bEq(a), c.cEq(a)
		b = -1
		for {
			c.op()
			b = ordered.NextUnion(bEq, c.ibStar, b)
			if b >= ordered.PosInf {
				// No viable B for this a. If the wildcard B-list alone
				// covers everything, no a can ever succeed (the
				// all-wildcard bottom-pattern case of Algorithm 3):
				// report exhaustion. Otherwise rule out just this a.
				c.op()
				if c.ibStar.Next(-1) >= ordered.PosInf {
					return 0, 0, 0, false
				}
				c.cons()
				c.ia.InsertOpen(a-1, a+1)
				break
			}
			if b < 0 || b >= c.dy.Capacity() {
				// Outside the dyadic key space: no ⟨*,b,·⟩ constraints
				// apply; only the ⟨a,*,·⟩ list constrains C.
				key := [2]int{a, b}
				z := -1
				if v, hit := c.oob[key]; hit {
					z = v
				}
				c.op()
				cv = cEq.Next(z)
				if cv >= ordered.PosInf {
					c.cons()
					bEq.InsertOpen(b-1, b+1)
					continue
				}
				c.oob[key] = cv
				if c.stats != nil {
					c.stats.ProbePoints++
				}
				return a, b, cv, true
			}
			// Descend the dyadic tree toward leaf b.
			x := c.dy.Root()
			pruned := false
			for {
				z := x.Cache(a, -1)
				c.op()
				cv = ordered.NextUnion(cEq, x.Set, z)
				x.SetCache(a, cv)
				if cv >= ordered.PosInf {
					// Every C is ruled out for all b in x's range:
					// inferred constraint ⟨a, (x.Lo-1, x.Hi+1), *⟩.
					c.cons()
					bEq.InsertOpen(x.Lo-1, x.Hi+1)
					pruned = true
					break
				}
				if x.IsLeaf() {
					if c.stats != nil {
						c.stats.ProbePoints++
					}
					return a, b, cv, true
				}
				x = c.dy.Descend(x, b)
			}
			if pruned {
				continue // recompute b past the pruned block
			}
		}
	}
}

// Triangle evaluates the triangle query Q△ = R(A,B) ⋈ S(B,C) ⋈ T(A,C)
// with the specialized Minesweeper of Theorem 5.4, running in
// Õ(|C|^{3/2} + Z) instead of the Õ(|C|²+Z) of the generic CDS.
// r, s, t are lists of pairs. Outputs (a,b,c) triples.
func Triangle(r, s, t [][]int, stats *certificate.Stats) ([][]int, error) {
	p, err := TriangleProblem(r, s, t)
	if err != nil {
		return nil, err
	}
	return TriangleIndexed(p.Atoms[0].Tree, p.Atoms[1].Tree, p.Atoms[2].Tree, stats)
}

// TriangleProblem indexes R(A,B), S(B,C), T(A,C) under the GAO (A,B,C)
// once — the pairs are already in column order, so no permuting copy —
// for TriangleRun to evaluate whole or by range morsels.
func TriangleProblem(r, s, t [][]int) (*Problem, error) {
	atoms := []Atom{{Name: "R", Positions: []int{0, 1}}, {Name: "S", Positions: []int{1, 2}}, {Name: "T", Positions: []int{0, 2}}}
	for i, tuples := range [][][]int{r, s, t} {
		tree, err := reltree.New(atoms[i].Name, 2, tuples)
		if err != nil {
			return nil, err
		}
		atoms[i].Tree = tree
	}
	return NewProblemFromAtoms([]string{"A", "B", "C"}, atoms)
}

// TriangleRun is TriangleIndexed as an engine run function over a
// TriangleProblem: the dyadic CDS materializes its triangles, so they
// are sorted into GAO-lex order, then emitted.
func TriangleRun(ctx context.Context, p *Problem, stats *certificate.Stats, emit func([]int) bool) error {
	out, err := TriangleIndexed(p.Atoms[0].Tree, p.Atoms[1].Tree, p.Atoms[2].Tree, stats)
	if err != nil {
		return err
	}
	slices.SortFunc(out, slices.Compare)
	return EmitSorted(ctx, out, nil, emit) // TriangleIndexed counted the outputs
}

// maxSecond returns the largest second-attribute value of an arity-2
// tree (0 when empty) by reading the last value of each first-level
// entry's child range — O(#distinct first values), no tuple
// materialization.
func maxSecond(t *reltree.Tree) int {
	max := 0
	seconds := t.Level(1)
	for p, end := t.Top(); p < end; p++ {
		if _, hi := t.Children(0, p); seconds[hi-1] > max {
			max = seconds[hi-1]
		}
	}
	return max
}

// TriangleIndexed runs the dyadic-CDS triangle engine over prebuilt
// indexes. The trees' stats receivers are set for the duration of the
// run, so callers sharing trees across goroutines must hand each run its
// own views (Problem.Snapshot, reltree.SliceTop).
func TriangleIndexed(rT, sT, tT *reltree.Tree, stats *certificate.Stats) ([][]int, error) {
	rT.SetStats(stats)
	sT.SetStats(stats)
	tT.SetStats(stats)
	defer rT.SetStats(nil)
	defer sT.SetStats(nil)
	defer tT.SetStats(nil)
	// The dyadic key space must cover every B value of R or S.
	maxB := maxSecond(rT)
	if sT.Size() > 0 {
		if v := sT.Value([]int{sT.Fanout(nil) - 1}); v > maxB {
			maxB = v
		}
	}
	cds := newTriangleCDS(maxB, stats)

	var out [][]int
	var lastA, lastB, lastC = -2, -2, -2
	for {
		a, b, cv, ok := cds.getProbePoint()
		if !ok {
			return out, nil
		}
		if a == lastA && b == lastB && cv == lastC {
			return nil, fmt.Errorf("core: triangle CDS made no progress at probe (%d,%d,%d)", a, b, cv)
		}
		lastA, lastB, lastC = a, b, cv

		// Explore R(A,B) around (a,b).
		ilR, ihR := rT.FindGap(nil, a)
		aInR := ilR == ihR
		cds.cons()
		cds.ia.InsertOpen(rT.Value([]int{ilR}), rT.Value([]int{ihR}))
		abInR := false
		if aInR {
			jl, jh := rT.FindGap([]int{ihR}, b)
			abInR = jl == jh
			cds.cons()
			cds.bEq(a).InsertOpen(rT.Value([]int{ihR, jl}), rT.Value([]int{ihR, jh}))
		}
		// Explore S(B,C) around (b,c).
		ilS, ihS := sT.FindGap(nil, b)
		bInS := ilS == ihS
		cds.insertBStar(sT.Value([]int{ilS}), sT.Value([]int{ihS}))
		bcInS := false
		if bInS {
			jl, jh := sT.FindGap([]int{ihS}, cv)
			bcInS = jl == jh
			cds.cons()
			cds.dy.InsertOpenAtKey(b, sT.Value([]int{ihS, jl}), sT.Value([]int{ihS, jh}))
		}
		// Explore T(A,C) around (a,c).
		ilT, ihT := tT.FindGap(nil, a)
		aInT := ilT == ihT
		cds.cons()
		cds.ia.InsertOpen(tT.Value([]int{ilT}), tT.Value([]int{ihT}))
		acInT := false
		if aInT {
			jl, jh := tT.FindGap([]int{ihT}, cv)
			acInT = jl == jh
			cds.cons()
			cds.cEq(a).InsertOpen(tT.Value([]int{ihT, jl}), tT.Value([]int{ihT, jh}))
		}

		if abInR && bcInS && acInT {
			out = append(out, []int{a, b, cv})
			if stats != nil {
				stats.Outputs++
			}
			// Advance past the output: the paper's Cache(a,b,c+1).
			if b >= 0 && b < cds.dy.Capacity() {
				leaf := cds.dy.Leaf(b)
				if leaf.Cache(a, -1) < cv+1 {
					leaf.SetCache(a, cv+1)
				}
			} else {
				cds.oob[[2]int{a, b}] = cv + 1
			}
		}
	}
}
