package baseline

import (
	"context"
	"sort"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// hashTrie is a nested hash-map index over an atom's attributes in GAO
// order, the access structure used by our NPRR-style generic join [40].
type hashTrie struct {
	children map[int]*hashTrie
}

func buildHashTrie(tuples [][]int) *hashTrie {
	root := &hashTrie{children: map[int]*hashTrie{}}
	for _, tup := range tuples {
		n := root
		for _, v := range tup {
			child, ok := n.children[v]
			if !ok {
				child = &hashTrie{children: map[int]*hashTrie{}}
				n.children[v] = child
			}
			n = child
		}
	}
	return root
}

// NPRRStream evaluates the join with an attribute-at-a-time generic join
// in the style of Ngo–Porat–Ré–Rudra [40]: at each GAO attribute, the
// candidate set is the distinct values of the participating atom with the
// fewest candidates (the size-based choice behind the AGM bound), and
// each candidate is hash-probed against the other participating atoms.
// Worst-case optimal, but ω(|C|) on the Appendix J families.
//
// Candidates are visited in sorted order, so tuples stream in
// GAO-lexicographic order. emit returns false to stop the enumeration;
// a cancelled context stops it with ctx.Err(), checked once per search
// level.
func NPRRStream(ctx context.Context, p *core.Problem, stats *certificate.Stats, emit func([]int) bool) error {
	n := len(p.GAO)
	levelAtoms := make([][]int, n)
	for ai := range p.Atoms {
		for _, gp := range p.Atoms[ai].Positions {
			levelAtoms[gp] = append(levelAtoms[gp], ai)
		}
	}
	tries := make([]*hashTrie, len(p.Atoms))
	for i := range p.Atoms {
		tries[i] = buildHashTrie(p.Atoms[i].Tree.Tuples())
	}
	// cursor[i]: current hash-trie node of atom i given the bound prefix.
	cursor := make([]*hashTrie, len(p.Atoms))
	copy(cursor, tries)
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
		// Smallest candidate set among the participating atoms.
		minIdx := parts[0]
		for _, ai := range parts[1:] {
			if len(cursor[ai].children) < len(cursor[minIdx].children) {
				minIdx = ai
			}
		}
		// Sorted candidate values: hash-map order is nondeterministic, and
		// the streaming contract promises lexicographic emission.
		cands := make([]int, 0, len(cursor[minIdx].children))
		for v := range cursor[minIdx].children {
			if p.Bounds != nil && !p.Bounds[level].Contains(v) {
				continue // pushed-down selection: candidate outside the bound
			}
			cands = append(cands, v)
		}
		sort.Ints(cands)
		saved := make([]*hashTrie, len(parts))
		for _, v := range cands {
			sub := cursor[minIdx].children[v]
			ok := true
			for _, ai := range parts {
				if stats != nil {
					stats.Comparisons++
				}
				if ai == minIdx {
					continue
				}
				if _, found := cursor[ai].children[v]; !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for si, ai := range parts {
				saved[si] = cursor[ai]
				if ai == minIdx {
					cursor[ai] = sub
				} else {
					cursor[ai] = cursor[ai].children[v]
				}
			}
			t[level] = v
			if err := rec(level + 1); err != nil {
				return err
			}
			for si, ai := range parts {
				cursor[ai] = saved[si]
			}
		}
		return nil
	}
	return sweep(rec(0))
}

// NPRRAll runs NPRR and collects the outputs (already sorted: NPRRStream
// visits candidates in value order).
func NPRRAll(p *core.Problem, stats *certificate.Stats) ([][]int, error) {
	var out [][]int
	err := NPRRStream(context.Background(), p, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	return out, err
}
