// Package rows owns the flat representation of relation rows: one
// row-major []int holding n rows of a fixed arity. It is the single
// place where arity and the index domain [0, ordered.PosInf) are
// checked, and where rows are compared, sorted, merged and permuted —
// the relation store, the reltree index builder, the catalog's
// pre-logging validation and WAL replay all go through it, so they agree
// on one order and one notion of a valid row.
//
// Sorted means lexicographic by column, duplicates adjacent. Every
// function that takes a sorted argument leaves it untouched and returns
// a fresh slice: callers publish the results as immutable snapshots.
package rows

import (
	"fmt"
	"slices"

	"minesweeper/internal/ordered"
)

// Check validates that every tuple has the given arity and only
// components inside the index domain. Errors name the offending tuple;
// callers prefix the relation.
func Check(arity int, tuples [][]int) error {
	for i, tup := range tuples {
		if len(tup) != arity {
			return fmt.Errorf("tuple %d has %d values, want %d", i, len(tup), arity)
		}
		for j, v := range tup {
			if v < 0 || v >= ordered.PosInf {
				return fmt.Errorf("tuple %d component %d = %d out of domain [0, %d)", i, j, v, ordered.PosInf)
			}
		}
	}
	return nil
}

// Flatten validates the tuples (see Check) and copies them, in the
// given order, into one row-major buffer.
func Flatten(arity int, tuples [][]int) ([]int, error) {
	if err := Check(arity, tuples); err != nil {
		return nil, err
	}
	flat := make([]int, 0, len(tuples)*arity)
	for _, tup := range tuples {
		flat = append(flat, tup...)
	}
	return flat, nil
}

// Views returns one slice header per row, aliasing flat. Each view's
// capacity is clipped to the row, so appending to one cannot reach its
// neighbour.
func Views(flat []int, arity int) [][]int {
	views := make([][]int, len(flat)/arity)
	for i := range views {
		views[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return views
}

// Compare is the row order everything here sorts and searches by:
// lexicographic by column (a shorter row that is a prefix of a longer
// one sorts first — rows of one relation never differ in length, but WAL
// replay compares rows it has not validated).
func Compare(a, b []int) int { return slices.Compare(a, b) }

// isSorted reports whether the rows are in sorted order.
func isSorted(flat []int, arity int) bool {
	for i := arity; i < len(flat); i += arity {
		for d := 0; d < arity; d++ {
			if prev, v := flat[i-arity+d], flat[i+d]; prev != v {
				if prev > v {
					return false
				}
				break
			}
		}
	}
	return true
}

// radixBits is the digit width of Sort: 2048 counters fit the L1 cache,
// and typical column values (below 2^22) take two passes.
const radixBits = 11

// Sort returns the validated (hence non-negative) rows in sorted order.
// The argument is consumed: the result is flat itself — found sorted
// already, as dumps, snapshots and shard-log buckets are — or one of the
// two buffers, flat and a scratch copy, that a least-significant-digit
// radix sort moves whole rows between: one stable counting pass per
// digit a column's largest value needs, last column first, so the cost
// is linear in the rows whatever the arity and no row is ever compared
// with another.
func Sort(flat []int, arity int) []int {
	if isSorted(flat, arity) {
		return flat
	}
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	src, dst := flat, make([]int, len(flat))
	for c := arity - 1; c >= 0; c-- {
		top := 0
		for i := c; i < len(src); i += arity {
			top = max(top, src[i])
		}
		for shift := 0; top>>shift > 0; shift += radixBits {
			clear(count[:])
			for i := c; i < len(src); i += arity {
				count[src[i]>>shift&mask]++
			}
			if count[src[c]>>shift&mask] == len(src)/arity {
				continue // every row carries the same digit
			}
			at := 0 // counts become each digit's next write offset in dst
			for d, n := range count {
				count[d], at = at, at+n*arity
			}
			for i := 0; i < len(src); i += arity {
				d := src[i+c] >> shift & mask
				copy(dst[count[d]:], src[i:i+arity])
				count[d] += arity
			}
			src, dst = dst, src
		}
	}
	return src
}

// Permute returns the rows with their columns reordered: column j of
// the result is column perm[j] of flat. perm must be a permutation of
// the column indexes.
func Permute(flat []int, arity int, perm []int) []int {
	out := make([]int, len(flat))
	for i := 0; i < len(flat); i += arity {
		for j, src := range perm {
			out[i+j] = flat[i+src]
		}
	}
	return out
}

// lowerBound returns the index of the first row of the sorted buffer
// that is not less than row.
func lowerBound(sorted []int, arity int, row []int) int {
	lo, hi := 0, len(sorted)/arity
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Compare(sorted[mid*arity:(mid+1)*arity], row) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Merge returns the sorted union (duplicates kept) of two sorted
// buffers in O(n + m log n): each batch row is located by binary search
// and the base rows between two batch rows are copied as one run.
func Merge(base, batch []int, arity int) []int {
	out := make([]int, 0, len(base)+len(batch))
	from := 0 // offset of the first base row not yet copied
	for b := 0; b < len(batch); b += arity {
		row := batch[b : b+arity]
		at := from + arity*lowerBound(base[from:], arity, row)
		out = append(out, base[from:at]...)
		out = append(out, row...)
		from = at
	}
	return append(out, base[from:]...)
}

// Remove deletes every copy of every batch row from the sorted base.
// It returns the surviving rows and the removed ones (with their
// multiplicity), both sorted; when nothing matches, kept is base itself
// and removed is nil. Same cost and run-copying as Merge.
func Remove(base, batch []int, arity int) (kept, removed []int) {
	from := 0
	for b := 0; b < len(batch); b += arity {
		row := batch[b : b+arity]
		lo := from + arity*lowerBound(base[from:], arity, row)
		hi := lo
		for hi < len(base) && Compare(base[hi:hi+arity], row) == 0 {
			hi += arity
		}
		if hi == lo {
			continue // absent, or a repeat of the previous batch row
		}
		if kept == nil {
			kept = make([]int, 0, len(base))
			removed = make([]int, 0, len(batch))
		}
		kept = append(kept, base[from:lo]...)
		removed = append(removed, base[lo:hi]...)
		from = hi
	}
	if removed == nil {
		return base, nil
	}
	return append(kept, base[from:]...), removed
}
