package baseline

import (
	"context"
	"fmt"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/hypergraph"
)

// Yannakakis evaluates an α-acyclic query with Yannakakis's algorithm,
// returning the sorted result.
func Yannakakis(gao []string, atoms []core.AtomSpec, stats *certificate.Stats) ([][]int, error) {
	var out [][]int
	err := YannakakisStream(context.Background(), gao, atoms, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// YannakakisStream evaluates an α-acyclic query with Yannakakis's
// algorithm [55]: build a join tree by GYO reduction, run a full
// semijoin reduction (leaves → root, then root → leaves), and join along
// the tree. After reduction every intermediate result is bounded by the
// final output, so the algorithm runs in Õ(N + Z) worst case — the
// classical guarantee the paper contrasts with certificate optimality
// (it is ω(|C|) on instances where a single pairwise semijoin already
// costs Ω(N), Appendix J).
//
// The reduction passes are inherently blocking — first-result latency is
// Ω(N) — so only the final enumeration streams: tuples are emitted in
// GAO-lexicographic order, emit false stops the emission, and the
// context is checked between semijoin/join steps and per emitted tuple.
func YannakakisStream(ctx context.Context, gao []string, atoms []core.AtomSpec, stats *certificate.Stats, emit func([]int) bool) error {
	edges := make([][]string, len(atoms))
	for i, a := range atoms {
		edges[i] = a.Attrs
	}
	h := hypergraph.New(edges)
	jt, ok := h.GYO()
	if !ok {
		return fmt.Errorf("baseline: Yannakakis requires an α-acyclic query")
	}
	tables := make([]*table, len(atoms))
	for i, a := range atoms {
		tables[i] = tableFromSpec(a)
	}
	if len(atoms) == 1 {
		final, err := tables[0].projectTo(gao)
		if err != nil {
			return err
		}
		SortTuples(final.tuples)
		return core.EmitSorted(ctx, final.tuples, stats, emit)
	}
	// Children lists and a bottom-up order (children before parents).
	children := make([][]int, len(atoms))
	for i, par := range jt.Parent {
		if i != jt.Root && par >= 0 {
			children[par] = append(children[par], i)
		}
	}
	order := postOrder(jt.Root, children)

	// Pass 1 (leaves → root): semijoin-reduce each parent by its children.
	for _, i := range order {
		for _, c := range children[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			tables[i] = semijoin(tables[i], tables[c], stats)
		}
	}
	// Pass 2 (root → leaves): reduce each child by its parent.
	for j := len(order) - 1; j >= 0; j-- {
		i := order[j]
		for _, c := range children[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			tables[c] = semijoin(tables[c], tables[i], stats)
		}
	}
	// Pass 3: join bottom-up along the tree. After full reduction, all
	// intermediates are bounded by |output| · |query|.
	for _, i := range order {
		for _, c := range children[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			tables[i] = HashJoin(tables[i], tables[c], stats)
		}
	}
	final, err := tables[jt.Root].projectTo(gao)
	if err != nil {
		return err
	}
	SortTuples(final.tuples)
	return core.EmitSorted(ctx, final.tuples, stats, emit)
}

func postOrder(root int, children [][]int) []int {
	var out []int
	var walk func(i int)
	walk = func(i int) {
		for _, c := range children[i] {
			walk(c)
		}
		out = append(out, i)
	}
	walk(root)
	return out
}

// semijoin keeps the tuples of a that join with at least one tuple of b.
// Every kept/dropped decision is one comparison (the work Yannakakis
// performs even when the certificate is tiny).
func semijoin(a, b *table, stats *certificate.Stats) *table {
	_, ia, ib := common(a, b)
	if len(ia) == 0 {
		if len(b.tuples) == 0 {
			return &table{attrs: a.attrs}
		}
		return a
	}
	keys := make(map[string]bool, len(b.tuples))
	for _, tb := range b.tuples {
		keys[projectKey(tb, ib)] = true
	}
	out := &table{attrs: a.attrs}
	for _, ta := range a.tuples {
		if stats != nil {
			stats.Comparisons++
		}
		if keys[projectKey(ta, ia)] {
			out.tuples = append(out.tuples, ta)
		}
	}
	return out
}
