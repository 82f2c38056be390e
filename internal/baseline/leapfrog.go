package baseline

import (
	"context"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

// trieIter is a linear iterator over one level of a relation search tree,
// supporting the leapfrog operations open/up/next/seek (Veldhuizen [53]).
// It walks the tree's CSR arrays directly: at depth d the iterator is a
// position inside a range of reltree.Tree.Level(d).
type trieIter struct {
	tree  *reltree.Tree
	stats *certificate.Stats
	// stack of (position, range end) pairs; depth = len(pos)-1 after open.
	pos []int
	end []int
}

func newTrieIter(t *reltree.Tree, stats *certificate.Stats) *trieIter {
	return &trieIter{tree: t, stats: stats}
}

// atEnd reports whether the iterator is past the last value at this level.
func (it *trieIter) atEnd() bool {
	d := len(it.pos) - 1
	return it.pos[d] >= it.end[d]
}

// key returns the current value at this level.
func (it *trieIter) key() int {
	d := len(it.pos) - 1
	return it.tree.Level(d)[it.pos[d]]
}

// next advances to the following value at this level.
func (it *trieIter) next() {
	it.pos[len(it.pos)-1]++
}

// seek advances to the least value ≥ v at this level (galloping search,
// counted as one FindGap-equivalent probe).
func (it *trieIter) seek(v int) {
	d := len(it.pos) - 1
	vals, p, end := it.tree.Level(d), it.pos[d], it.end[d]
	if it.stats != nil {
		it.stats.FindGaps++
	}
	// Gallop from the current position.
	lo, hi := p, p+1
	for hi < end && vals[hi] < v {
		if it.stats != nil {
			it.stats.Comparisons++
		}
		lo = hi
		hi = p + 2*(hi-p)
	}
	if hi > end {
		hi = end
	}
	// Binary search in (lo, hi].
	for lo < hi {
		mid := (lo + hi) / 2
		if it.stats != nil {
			it.stats.Comparisons++
		}
		if vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos[d] = lo
}

// open descends one trie level: from the virtual pre-root to the first
// attribute, or into the children of the current value.
func (it *trieIter) open() {
	var lo, hi int
	if d := len(it.pos) - 1; d < 0 {
		lo, hi = it.tree.Top()
	} else {
		lo, hi = it.tree.Children(d, it.pos[d])
	}
	it.pos = append(it.pos, lo)
	it.end = append(it.end, hi)
}

// up returns to the parent level.
func (it *trieIter) up() {
	it.pos = it.pos[:len(it.pos)-1]
	it.end = it.end[:len(it.end)-1]
}

// LeapfrogStream evaluates the join with the Leapfrog Triejoin algorithm
// [53]: a backtracking search over the GAO where, at each attribute, the
// iterators of all atoms containing that attribute are intersected with
// the leapfrog seek dance. Worst-case optimal, but ω(|C|) on the path
// families of Appendix J.
//
// Tuples stream in GAO-lexicographic order as the search discovers them.
// emit returns false to stop the enumeration (the call returns nil); a
// cancelled context stops it with ctx.Err(), checked once per search
// level.
func LeapfrogStream(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
	p.Attach(stats)
	defer p.Detach()
	n := len(p.GAO)
	// For each GAO level, the atoms participating (their iterator index).
	levelAtoms := make([][]int, n)
	for ai := range p.Atoms {
		for _, gp := range p.Atoms[ai].Positions {
			levelAtoms[gp] = append(levelAtoms[gp], ai)
		}
	}
	iters := make([]*trieIter, len(p.Atoms))
	for i := range p.Atoms {
		iters[i] = newTrieIter(p.Atoms[i].Tree, stats)
	}
	t := make([]int, n)
	var rec func(level int) error
	rec = func(level int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if level == n {
			if stats != nil {
				stats.Outputs++
			}
			if !emit(append([]int(nil), t...)) {
				return errStop
			}
			return nil
		}
		parts := levelAtoms[level]
		if len(parts) == 0 {
			// Cannot happen: NewProblem rejects uncovered attributes.
			t[level] = 0
			return rec(level + 1)
		}
		for _, ai := range parts {
			iters[ai].open()
		}
		defer func() {
			for _, ai := range parts {
				iters[ai].up()
			}
		}()
		bound := core.FullBound()
		if p.Bounds != nil {
			bound = p.Bounds[level]
			if bound.Lo > 0 {
				// Pushed-down selection: leap every iterator straight to
				// the lower bound before intersecting.
				for _, ai := range parts {
					iters[ai].seek(bound.Lo)
				}
			}
		}
		// Leapfrog intersection.
		for {
			// max of current keys; if any iterator is exhausted, done.
			maxKey, anyEnd := ordered.NegInf, false
			for _, ai := range parts {
				if iters[ai].atEnd() {
					anyEnd = true
					break
				}
				if k := iters[ai].key(); k > maxKey {
					maxKey = k
				}
			}
			if anyEnd || maxKey > bound.Hi {
				return nil
			}
			agree := true
			for _, ai := range parts {
				if iters[ai].key() != maxKey {
					iters[ai].seek(maxKey)
					agree = false
					break
				}
			}
			if !agree {
				continue
			}
			t[level] = maxKey
			if err := rec(level + 1); err != nil {
				return err
			}
			for _, ai := range parts {
				iters[ai].next()
			}
			// After next(), only the advanced iterators changed; loop
			// recomputes the intersection from scratch.
		}
	}
	return sweep(rec(0))
}

// LeapfrogAll runs Leapfrog and collects the outputs.
func LeapfrogAll(p *core.Problem, stats *certificate.Stats) ([][]int, error) {
	var out [][]int
	err := LeapfrogStream(context.Background(), p, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	return out, err
}
