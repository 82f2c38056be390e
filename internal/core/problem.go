// Package core implements the Minesweeper join algorithm of the paper:
// the generic outer algorithm (Algorithm 2) driving the constraint data
// structure, plus the triangle query with the dyadic-tree CDS
// (Algorithm 10, Appendix L). The appendices' other special cases, m-way
// set intersection (Appendix H) and the bow-tie (Appendix I), are
// β-acyclic queries the generic algorithm runs within their bounds.
package core

import (
	"context"
	"fmt"
	"sort"

	"minesweeper/internal/certificate"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

// AtomSpec describes one atom of a natural join query: a named relation
// with an attribute list and its tuples (columns parallel to Attrs).
// The same underlying data may appear in several atoms under different
// attribute bindings (self-joins).
type AtomSpec struct {
	Name   string
	Attrs  []string
	Tuples [][]int
}

// Atom is an atom prepared for execution: its index tree is built in
// GAO-consistent column order and Positions maps the tree's levels to
// GAO positions (the paper's function s, strictly increasing).
type Atom struct {
	Name      string
	Tree      *reltree.Tree
	Positions []int
}

// Bound is an inclusive allowed value range for one GAO position — the
// pushed-down form of a constant selection ([v, v]) or a range filter.
// The zero Bound is NOT full; use FullBound.
type Bound struct{ Lo, Hi int }

// FullBound allows the whole tuple domain [0, ordered.PosInf).
func FullBound() Bound { return Bound{0, ordered.PosInf - 1} }

// Full reports whether the bound allows the whole domain.
func (b Bound) Full() bool { return b.Lo <= 0 && b.Hi >= ordered.PosInf-1 }

// Empty reports whether the bound allows no value at all.
func (b Bound) Empty() bool { return b.Lo > b.Hi }

// Contains reports whether v satisfies the bound.
func (b Bound) Contains(v int) bool { return v >= b.Lo && v <= b.Hi }

// Intersect returns the conjunction of two bounds.
func (b Bound) Intersect(o Bound) Bound {
	if o.Lo > b.Lo {
		b.Lo = o.Lo
	}
	if o.Hi < b.Hi {
		b.Hi = o.Hi
	}
	return b
}

// FullBounds reports whether every bound in the slice is full (a nil
// slice is trivially full).
func FullBounds(bounds []Bound) bool {
	for _, b := range bounds {
		if !b.Full() {
			return false
		}
	}
	return true
}

// Problem is a join query bound to a global attribute order, with all
// relations indexed consistently with the GAO (Section 2.1).
type Problem struct {
	GAO   []string
	Atoms []Atom
	// Bounds, when non-nil, restricts each GAO position to an inclusive
	// value range (len(Bounds) == len(GAO)). Every engine honors the
	// bounds: Minesweeper seeds them into the CDS as pre-ruled-out gaps
	// before the first probe, the backtracking engines clamp their
	// per-level searches, and the materializing engines consume
	// bounds-filtered Specs. Out-of-bounds tuples are never emitted.
	Bounds []Bound
	// Debug enables the per-iteration soundness check that each non-output
	// probe point is covered by a freshly inserted constraint (the
	// termination invariant of Theorem 3.2's proof), O(2^n log W) per
	// probe, and Minesweeper's check that every emitted tuple is strictly
	// GAO-lex greater than the one before it.
	Debug bool
	// DisableBoxes turns off box-constraint emission, restricting the CDS
	// to the paper's per-attribute interval gaps. Exists for the
	// interval-vs-box benchmark comparison; leave false for normal runs.
	DisableBoxes bool
	// Splits, when non-empty, are ascending values of GAO position
	// SplitPos that a range-morsel run must cut at: no morsel holds both
	// a value below a split and one at or above it. A range partition's
	// split points land here (engine.Parallel), so each partition range
	// is evaluated by morsels of its own. Engines that run the problem
	// whole ignore them.
	Splits   []int
	SplitPos int
	// suffix is the GAO's product-suffix plan, fixed when the problem is
	// assembled (see SuffixFrom).
	suffix suffixPlan
}

// SuffixFrom returns the cut level k* of the GAO's product suffix (see
// PlanSuffix). Below a prefix t[:k*], Minesweeper enumerates the outputs
// of an output probe point by nested loops over the atoms' sibling runs
// instead of probing for them.
func (p *Problem) SuffixFrom() int { return p.suffix.from }

// suffixPlan is how a walk enumerates the product suffix below level
// from: levels from…n−2 are each held by one atom (owner, at index
// depth depth), and lastAtoms are the atoms meeting on the last level,
// whose sibling runs are intersected there. back[j−from] is the level a
// walk advances next when level j's run holds nothing within its bound
// from its start: the deepest level that run depends on, or from−1
// when it depends on the prefix alone.
type suffixPlan struct {
	from      int
	owner     []int
	depth     []int
	lastAtoms []int
	back      []int
	atoms     []int // every atom holding a suffix level
}

// PlanSuffix returns the cut level k* for a GAO of n attributes and
// atoms over the given GAO positions: the shallowest level such that
// every level from k* to n−2 belongs to exactly one atom, so that with
// t1…t_{k*} fixed the outputs below are the product of the atoms'
// sibling runs. Several atoms may meet on the last level, where the
// runs are intersected, but then levels k*…n−2 must all be one atom's:
// a product of two atoms' runs above an intersection could walk every
// pair of them for one output. k* = n−1 is the last-level walk alone.
func PlanSuffix(n int, positions [][]int) int {
	return planSuffix(n, positions).from
}

func planSuffix(n int, positions [][]int) suffixPlan {
	m := len(positions)
	buf := make([]int, 4*n+2*m)
	count, holder, depth, back := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n]
	for i, pos := range positions {
		for d, j := range pos {
			count[j]++
			holder[j], depth[j] = i, d
		}
	}
	k := n - 1
	for k > 0 && count[k-1] == 1 && (count[n-1] == 1 || k == n-1 || holder[k-1] == holder[n-2]) {
		k--
	}
	// parent is the level the run of atom i at index depth d hangs under,
	// or k−1 when that level is in the prefix.
	parent := func(i, d int) int {
		if d > 0 && positions[i][d-1] >= k {
			return positions[i][d-1]
		}
		return k - 1
	}
	for j := k; j < n-1; j++ {
		back[j] = parent(holder[j], depth[j])
	}
	sp := suffixPlan{from: k, owner: holder[k : n-1], depth: depth[k : n-1], back: back[k:n],
		lastAtoms: buf[4*n : 4*n : 4*n+m], atoms: buf[4*n+m : 4*n+m]}
	back[n-1] = k - 1
	for i, pos := range positions {
		d := len(pos) - 1
		if pos[d] == n-1 {
			sp.lastAtoms = append(sp.lastAtoms, i)
			back[n-1] = max(back[n-1], parent(i, d))
		}
		// Levels k…n−2 are one atom's each, so an atom reaching below k
		// holds a suffix level.
		if pos[d] >= k {
			sp.atoms = append(sp.atoms, i)
		}
	}
	return sp
}

// ColumnPlan computes, for an atom with the given attributes under the
// GAO, the sorted GAO positions of its columns (the paper's strictly
// increasing function s) and the source-column permutation that brings
// its tuples into GAO-consistent order. The pair (relation identity,
// perm) keys the index caches: two atoms with the same permutation over
// the same data share one search tree.
func ColumnPlan(gao, attrs []string) (positions, perm []int, err error) {
	pos := make(map[string]int, len(gao))
	for i, a := range gao {
		if _, dup := pos[a]; dup {
			return nil, nil, fmt.Errorf("GAO repeats attribute %q", a)
		}
		pos[a] = i
	}
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("atom has no attributes")
	}
	type col struct {
		gaoPos, srcCol int
	}
	seen := map[string]bool{}
	cols := make([]col, 0, len(attrs))
	for j, a := range attrs {
		gp, ok := pos[a]
		if !ok {
			return nil, nil, fmt.Errorf("attribute %q not in GAO", a)
		}
		if seen[a] {
			return nil, nil, fmt.Errorf("atom repeats attribute %q", a)
		}
		seen[a] = true
		cols = append(cols, col{gp, j})
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].gaoPos < cols[j].gaoPos })
	positions = make([]int, len(cols))
	perm = make([]int, len(cols))
	for i, c := range cols {
		positions[i] = c.gaoPos
		perm[i] = c.srcCol
	}
	return positions, perm, nil
}

// PermuteTuples applies the column permutation to every tuple, producing
// rows in GAO-consistent order ready for reltree.New.
func PermuteTuples(perm []int, tuples [][]int) ([][]int, error) {
	permuted := make([][]int, len(tuples))
	for i, tup := range tuples {
		if len(tup) != len(perm) {
			return nil, fmt.Errorf("tuple %d has %d values, want %d", i, len(tup), len(perm))
		}
		row := make([]int, len(perm))
		for j, src := range perm {
			row[j] = tup[src]
		}
		permuted[i] = row
	}
	return permuted, nil
}

// BuildAtom indexes one atom for the GAO: it plans the column order,
// permutes the tuples and builds the search tree. This is the only place
// the library constructs indexes; prepared queries call it at most once
// per (relation, column order).
func BuildAtom(gao []string, spec AtomSpec) (Atom, error) {
	positions, perm, err := ColumnPlan(gao, spec.Attrs)
	if err != nil {
		return Atom{}, fmt.Errorf("core: atom %q: %w", spec.Name, err)
	}
	permuted, err := PermuteTuples(perm, spec.Tuples)
	if err != nil {
		return Atom{}, fmt.Errorf("core: atom %q: %w", spec.Name, err)
	}
	tree, err := reltree.New(spec.Name, len(perm), permuted)
	if err != nil {
		return Atom{}, err
	}
	return Atom{Name: spec.Name, Tree: tree, Positions: positions}, nil
}

// NewProblemFromAtoms assembles a problem from already-indexed atoms
// (built by BuildAtom or pulled from an index cache), validating that
// atom names are distinct and that the GAO is covered. No tuples are
// copied, sorted or indexed here.
func NewProblemFromAtoms(gao []string, atoms []Atom) (*Problem, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	covered := make([]bool, len(gao))
	names := map[string]bool{}
	p := &Problem{GAO: gao}
	for _, a := range atoms {
		if names[a.Name] {
			return nil, fmt.Errorf("core: duplicate atom name %q (atom names key the certificate variables)", a.Name)
		}
		names[a.Name] = true
		for _, gp := range a.Positions {
			if gp < 0 || gp >= len(gao) {
				return nil, fmt.Errorf("core: atom %q: position %d out of GAO range", a.Name, gp)
			}
			covered[gp] = true
		}
		p.Atoms = append(p.Atoms, a)
	}
	for i, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("core: GAO attribute %q appears in no atom", gao[i])
		}
	}
	positions := make([][]int, len(atoms))
	for i, a := range atoms {
		positions[i] = a.Positions
	}
	p.suffix = planSuffix(len(gao), positions)
	return p, nil
}

// NewProblem validates the query, permutes every atom's columns into
// GAO-consistent order, and builds the search-tree indexes.
func NewProblem(gao []string, atoms []AtomSpec) (*Problem, error) {
	built := make([]Atom, 0, len(atoms))
	if len(atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	for _, spec := range atoms {
		a, err := BuildAtom(gao, spec)
		if err != nil {
			return nil, err
		}
		built = append(built, a)
	}
	return NewProblemFromAtoms(gao, built)
}

// Snapshot returns a per-run copy of the problem whose atom trees are
// shallow clones of the originals. The clones share the immutable index
// nodes, so a snapshot costs O(#atoms) — three allocations total, the
// per-atom views live in one block; each run attaches its own stats
// receiver to its snapshot, which is what makes a cached problem safe for
// concurrent executions.
func (p *Problem) Snapshot() *Problem {
	cp := &Problem{GAO: p.GAO, Bounds: p.Bounds, Debug: p.Debug, DisableBoxes: p.DisableBoxes, Splits: p.Splits, SplitPos: p.SplitPos, suffix: p.suffix}
	cp.Atoms = make([]Atom, len(p.Atoms))
	views := make([]reltree.Tree, len(p.Atoms))
	for i, a := range p.Atoms {
		views[i] = a.Tree.View()
		cp.Atoms[i] = Atom{Name: a.Name, Tree: &views[i], Positions: a.Positions}
	}
	return cp
}

// Specs reconstructs GAO-consistent atom specs from the built indexes
// (attribute names looked up through the GAO, tuples materialized from
// the trees). Engines that work on raw tuple lists rather than search
// trees — Yannakakis, the pairwise hash plans — consume these. When the
// problem carries Bounds, tuples violating a bound on one of the atom's
// columns are dropped here, so materializing engines evaluate the
// selection-reduced inputs rather than post-filtering the join.
func (p *Problem) Specs() []AtomSpec {
	specs := make([]AtomSpec, len(p.Atoms))
	for i, a := range p.Atoms {
		attrs := make([]string, len(a.Positions))
		bounded := false
		for j, gp := range a.Positions {
			attrs[j] = p.GAO[gp]
			if p.Bounds != nil && !p.Bounds[gp].Full() {
				bounded = true
			}
		}
		tuples := a.Tree.Tuples()
		if bounded {
			kept := make([][]int, 0, len(tuples))
			for _, tup := range tuples {
				ok := true
				for j, gp := range a.Positions {
					if !p.Bounds[gp].Contains(tup[j]) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, tup)
				}
			}
			tuples = kept
		}
		specs[i] = AtomSpec{Name: a.Name, Attrs: attrs, Tuples: tuples}
	}
	return specs
}

// Attach wires per-run stats into every index tree.
func (p *Problem) Attach(s *certificate.Stats) {
	for _, a := range p.Atoms {
		a.Tree.SetStats(s)
	}
}

// Detach removes the stats receivers.
func (p *Problem) Detach() {
	for _, a := range p.Atoms {
		a.Tree.SetStats(nil)
	}
}

// InputSize returns N: the total number of tuples across atoms.
func (p *Problem) InputSize() int {
	n := 0
	for _, a := range p.Atoms {
		n += a.Tree.Size()
	}
	return n
}

// EmitSorted streams an already-sorted materialized result through emit,
// counting outputs into stats (may be nil) and honoring cancellation. It
// is the adapter that gives the materializing engines (Yannakakis, the
// pairwise hash plans, the dyadic triangle) the same limit/cancellation
// surface as the streaming ones: early termination saves the emission,
// not the evaluation, which is exactly the anytime behaviour a
// materializing plan lacks (Section 1).
func EmitSorted(ctx context.Context, tuples [][]int, stats *certificate.Stats, emit func([]int) bool) error {
	for _, t := range tuples {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stats != nil {
			stats.Outputs++
		}
		if !emit(t) {
			return nil
		}
	}
	return nil
}
