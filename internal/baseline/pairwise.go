// Package baseline implements the comparison join algorithms of the
// paper: the classical pairwise operators (hash join, sort-merge join,
// left-deep plans — the "natural class of comparison-based join
// algorithms" of Section 1), Yannakakis's algorithm for α-acyclic queries
// [55], and the worst-case-optimal algorithms Leapfrog Triejoin [53] and
// NPRR-style generic join [40] that Appendix J proves are ω(|C|) on
// β-acyclic path families.
//
// All algorithms use set semantics and produce tuples over the union of
// the query's attributes in GAO order, so their outputs are directly
// comparable with Minesweeper's.
package baseline

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// table is an intermediate relation with named columns.
type table struct {
	attrs  []string
	tuples [][]int
}

func tableFromSpec(spec core.AtomSpec) *table {
	t := &table{attrs: append([]string(nil), spec.Attrs...)}
	seen := map[string]bool{}
	for _, tup := range spec.Tuples {
		k := rowKey(tup)
		if !seen[k] {
			seen[k] = true
			t.tuples = append(t.tuples, append([]int(nil), tup...))
		}
	}
	return t
}

func rowKey(tup []int) string {
	var b strings.Builder
	for _, v := range tup {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('|')
	}
	return b.String()
}

// common returns the shared attribute names and their column indexes in
// each table.
func common(a, b *table) (names []string, ia, ib []int) {
	posB := map[string]int{}
	for j, attr := range b.attrs {
		posB[attr] = j
	}
	for i, attr := range a.attrs {
		if j, ok := posB[attr]; ok {
			names = append(names, attr)
			ia = append(ia, i)
			ib = append(ib, j)
		}
	}
	return
}

func projectKey(tup []int, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(strconv.Itoa(tup[c]))
		b.WriteByte('|')
	}
	return b.String()
}

// HashJoin computes the natural join of two tables by hashing b on the
// shared attributes and probing with a. Output columns: a's attributes
// followed by b's non-shared attributes. Counts one comparison per probe.
func HashJoin(a, b *table, stats *certificate.Stats) *table {
	_, ia, ib := common(a, b)
	return joinInto(a, b, ia, ib, stats)
}

func joinInto(a, b *table, ia, ib []int, stats *certificate.Stats) *table {
	// extra: b's columns not shared with a.
	shared := map[int]bool{}
	for _, j := range ib {
		shared[j] = true
	}
	var extraCols []int
	out := &table{attrs: append([]string(nil), a.attrs...)}
	for j, attr := range b.attrs {
		if !shared[j] {
			extraCols = append(extraCols, j)
			out.attrs = append(out.attrs, attr)
		}
	}
	idx := make(map[string][][]int, len(b.tuples))
	for _, tb := range b.tuples {
		k := projectKey(tb, ib)
		idx[k] = append(idx[k], tb)
	}
	for _, ta := range a.tuples {
		k := projectKey(ta, ia)
		if stats != nil {
			stats.Comparisons++
		}
		for _, tb := range idx[k] {
			row := make([]int, 0, len(out.attrs))
			row = append(row, ta...)
			for _, c := range extraCols {
				row = append(row, tb[c])
			}
			out.tuples = append(out.tuples, row)
		}
	}
	return out.dedup()
}

func (t *table) dedup() *table {
	seen := map[string]bool{}
	keep := t.tuples[:0]
	for _, tup := range t.tuples {
		k := rowKey(tup)
		if !seen[k] {
			seen[k] = true
			keep = append(keep, tup)
		}
	}
	t.tuples = keep
	return t
}

// SortMergeJoin computes the same natural join by sorting both sides on
// the shared attributes and merging. It exists as an independent pairwise
// oracle and to model the sort-merge member of the comparison class.
func SortMergeJoin(a, b *table, stats *certificate.Stats) *table {
	_, ia, ib := common(a, b)
	less := func(tuples [][]int, cols []int) func(i, j int) bool {
		return func(i, j int) bool {
			for _, c := range cols {
				if tuples[i][c] != tuples[j][c] {
					return tuples[i][c] < tuples[j][c]
				}
			}
			return false
		}
	}
	as := append([][]int(nil), a.tuples...)
	bs := append([][]int(nil), b.tuples...)
	sort.Slice(as, less(as, ia))
	sort.Slice(bs, less(bs, ib))
	cmp := func(ta, tb []int) int {
		if stats != nil {
			stats.Comparisons++
		}
		for x := range ia {
			if ta[ia[x]] != tb[ib[x]] {
				if ta[ia[x]] < tb[ib[x]] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	shared := map[int]bool{}
	for _, j := range ib {
		shared[j] = true
	}
	var extraCols []int
	out := &table{attrs: append([]string(nil), a.attrs...)}
	for j, attr := range b.attrs {
		if !shared[j] {
			extraCols = append(extraCols, j)
			out.attrs = append(out.attrs, attr)
		}
	}
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		switch c := cmp(as[i], bs[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the equal runs.
			i2 := i
			for i2 < len(as) && cmp(as[i2], bs[j]) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(bs) && cmp(as[i], bs[j2]) == 0 {
				j2++
			}
			for x := i; x < i2; x++ {
				for y := j; y < j2; y++ {
					row := make([]int, 0, len(out.attrs))
					row = append(row, as[x]...)
					for _, c := range extraCols {
						row = append(row, bs[y][c])
					}
					out.tuples = append(out.tuples, row)
				}
			}
			i, j = i2, j2
		}
	}
	return out.dedup()
}

// projectTo reorders/selects columns to the given attribute order.
func (t *table) projectTo(attrs []string) (*table, error) {
	cols := make([]int, len(attrs))
	pos := map[string]int{}
	for j, a := range t.attrs {
		pos[a] = j
	}
	for i, a := range attrs {
		j, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("baseline: projection attribute %q missing from %v", a, t.attrs)
		}
		cols[i] = j
	}
	out := &table{attrs: append([]string(nil), attrs...)}
	for _, tup := range t.tuples {
		row := make([]int, len(cols))
		for i, c := range cols {
			row[i] = tup[c]
		}
		out.tuples = append(out.tuples, row)
	}
	return out.dedup(), nil
}

// LeftDeepHashJoin evaluates the query with a left-deep plan over the
// atoms in the given order using pairwise hash joins, returning tuples in
// GAO attribute order. It is the library's correctness oracle: simple,
// independent of the index machinery, and obviously correct.
func LeftDeepHashJoin(gao []string, atoms []core.AtomSpec, stats *certificate.Stats) ([][]int, error) {
	var out [][]int
	err := LeftDeepHashJoinStream(context.Background(), gao, atoms, stats, func(t []int) bool {
		out = append(out, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LeftDeepHashJoinStream runs the left-deep pairwise hash plan and
// streams the sorted result. Like every materializing plan, it has no
// true anytime behaviour — the plan runs to completion before the first
// tuple appears — but the emission obeys the uniform streaming contract:
// GAO-lexicographic order, emit false stops, and the context is checked
// between pairwise joins and per emitted tuple.
func LeftDeepHashJoinStream(ctx context.Context, gao []string, atoms []core.AtomSpec, stats *certificate.Stats, emit func([]int) bool) error {
	if len(atoms) == 0 {
		return fmt.Errorf("baseline: no atoms")
	}
	acc := tableFromSpec(atoms[0])
	for _, spec := range atoms[1:] {
		if err := ctx.Err(); err != nil {
			return err
		}
		acc = HashJoin(acc, tableFromSpec(spec), stats)
	}
	final, err := acc.projectTo(gao)
	if err != nil {
		return err
	}
	SortTuples(final.tuples)
	return core.EmitSorted(ctx, final.tuples, stats, emit)
}

// SortTuples sorts tuples lexicographically in place (canonical output
// order used to compare engines).
func SortTuples(tuples [][]int) {
	sort.Slice(tuples, func(i, j int) bool {
		a, b := tuples[i], tuples[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
