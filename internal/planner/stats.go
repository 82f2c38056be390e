// Package planner chooses global attribute orders from the data, not
// just the query structure. The paper's certificate bound Õ(|C|^{w+1}+Z)
// is relative to a fixed GAO, and Examples B.3–B.6 show that two
// equal-width orders can differ by an exponential factor on the same
// instance; the structural heuristics (nested elimination orders, the
// greedy min-width search) cannot see that difference. This package
// collects cheap per-column statistics at index-build time — distinct
// counts, value ranges, a max-frequency skew sketch — and runs a
// cost-based beam search over elimination-width-feasible orders, so the
// order the engines evaluate under reflects the instance at hand.
package planner

import "sort"

// ColStat summarizes one relation column: the number of distinct
// values, the value range, and the size of the largest single-value run
// (the skew sketch — a column where one value dominates joins very
// differently from a uniform one with the same distinct count).
type ColStat struct {
	Distinct int
	Min, Max int
	MaxFreq  int
}

// Span returns the width of the column's value range (0 for an empty
// column). Span ≫ Distinct marks a sparse domain — the signal the
// dictionary encoder keys on.
func (c ColStat) Span() int {
	if c.Distinct == 0 {
		return 0
	}
	return c.Max - c.Min + 1
}

// freqSkewFactor is the skew threshold of FreqSkewed: the heaviest
// value must occur at least this many times the uniform expectation
// rows/distinct before a frequency-permuted domain order is worth a
// non-order-preserving encoding.
const freqSkewFactor = 8

// FreqSkewed reports whether the skew sketch marks the column a
// candidate for a frequency-permuted domain order (NewFreqDict): its
// max-frequency value dominates enough that clustering heavy values at
// adjacent codes can coalesce the constraint-store intervals around
// them. Uniform columns (MaxFreq ≈ rows/distinct) never qualify, so
// typical key data keeps the order-preserving rank encoding and its
// bound pushdown.
func FreqSkewed(rows int, c ColStat) bool {
	if rows == 0 || c.Distinct < 2 || c.MaxFreq < 2 {
		return false
	}
	return c.MaxFreq*c.Distinct >= freqSkewFactor*rows
}

// RelStats carries the per-column statistics of one relation snapshot.
// The public layer caches one per relation, invalidated by the
// relation's mutation epoch, so prepared queries re-plan only when the
// data actually changed.
type RelStats struct {
	Rows int
	Cols []ColStat
}

// Collect computes the statistics of a tuple set in O(arity · N log N):
// one sorted pass per column. Duplicate tuples are counted as stored
// (the sketch approximates the indexed relation closely enough for
// costing; exactness is not required). It is the reference the relation
// store's merge-maintained statistics are tested against.
func Collect(tuples [][]int, arity int) *RelStats {
	st := &RelStats{Rows: len(tuples), Cols: make([]ColStat, arity)}
	buf := make([]int, len(tuples))
	for c := 0; c < arity; c++ {
		for i, tup := range tuples {
			buf[i] = tup[c]
		}
		sort.Ints(buf)
		st.Cols[c] = StatSorted(buf, 1)
	}
	return st
}

// StatSorted summarizes a column whose values are already in ascending
// order, in one O(n) pass. The values sit at vals[0], vals[stride],
// vals[2·stride], …: a contiguous sorted array has stride 1, the leading
// column of sorted row-major rows has stride arity. An empty column
// yields the zero ColStat.
func StatSorted(vals []int, stride int) ColStat {
	if len(vals) == 0 {
		return ColStat{}
	}
	cs := ColStat{Min: vals[0], Max: vals[0], Distinct: 1, MaxFreq: 1}
	run := 1
	for i := stride; i < len(vals); i += stride {
		if vals[i] == cs.Max {
			run++
			if run > cs.MaxFreq {
				cs.MaxFreq = run
			}
			continue
		}
		run = 1
		cs.Distinct++
		cs.Max = vals[i]
	}
	return cs
}
