package engine

import (
	"context"
	"fmt"
	"sort"

	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
)

// AggOp selects a streaming aggregate function.
type AggOp int

const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
	AggCountDistinct
)

// Aggregate is one aggregate output column: the operation applied to the
// value at one GAO position of each raw join tuple (Col < 0 for
// COUNT(*), which needs no column).
type Aggregate struct {
	Op  AggOp
	Col int
}

// Shape is the query-shaping plan the adapter applies on top of an
// engine's raw GAO-ordered emissions: per-position bound filtering (a
// safety net behind the engines' own pushdown), column projection with
// optional set-semantics dedup, and grouped streaming aggregation. All
// five engines run through the same adapter, so selection, projection
// and aggregation semantics are engine-independent by construction.
type Shape struct {
	// Cols are the projected GAO positions in presentation order. The
	// shaped tuple i-th column is rawTuple[Cols[i]].
	Cols []int
	// Distinct dedups projected tuples. Set when the projection drops a
	// (non-constant) GAO column, so the set semantics of the join result
	// survive projection.
	Distinct bool
	// Aggregates, when non-empty, turn the run into a grouped
	// aggregation: raw tuples are folded into one group per distinct
	// Cols-projection, and the shaped output is one row per non-empty
	// group — the group key followed by one value per aggregate — sorted
	// by group key. No raw tuples are materialized.
	Aggregates []Aggregate
	// Bounds filters raw tuples per GAO position (nil = unbounded). The
	// engines already push the same bounds into their search, so for
	// them this check never fires; it is the uniform-semantics guarantee
	// for any engine whose pushdown is partial.
	Bounds []core.Bound
	// Empty marks a contradictory selection (some bound allows no
	// value): the run emits nothing and skips evaluation entirely.
	Empty bool
}

// Identity reports whether the shape changes nothing about the raw
// emission (nil receiver included): engines can then stream straight to
// the caller.
func (sh *Shape) Identity() bool {
	if sh == nil {
		return true
	}
	if sh.Empty || sh.Distinct || len(sh.Aggregates) > 0 || sh.Bounds != nil {
		return false
	}
	if sh.Cols == nil {
		return true
	}
	for i, c := range sh.Cols {
		if c != i {
			return false
		}
	}
	return true
}

// inBounds reports whether the raw tuple satisfies every per-position
// bound.
func (sh *Shape) inBounds(t []int) bool {
	for i, b := range sh.Bounds {
		if !b.Contains(t[i]) {
			return false
		}
	}
	return true
}

// appendKey renders the projected columns of t as a byte key for group
// and dedup maps. Domain values fit in 8 bytes; fixed-width encoding
// keeps distinct tuples at distinct keys.
func appendKey(buf []byte, t []int, cols []int) []byte {
	for _, c := range cols {
		v := t[c]
		for s := 56; s >= 0; s -= 8 {
			buf = append(buf, byte(uint64(v)>>uint(s)))
		}
	}
	return buf
}

// aggState is the running state of one aggregate in one group.
type aggState struct {
	count    int64
	sum      int64
	min, max int
	distinct map[int]struct{}
}

// group is one aggregation group: its key values plus one state per
// aggregate.
type group struct {
	key  []int
	aggs []aggState
}

// RunShaped evaluates the problem through run and streams the shaped
// output to emit. For plain (non-aggregate) shapes, shaped tuples are
// emitted in the engines' GAO-lexicographic discovery order — identical
// across engines — with fresh slices the callback may retain; emit
// returning false stops the run. A raw tuple is the receiver's (see the
// package contract), so each shaped tuple is permuted into the front of
// its raw tuple, not copied; a shape wider than the raw tuple is an
// error. For
// aggregate shapes the evaluation runs to completion first
// (aggregation needs every raw tuple), then the group rows stream
// sorted by group key. stats counts the raw run: stats.Outputs is the
// number of raw join tuples the engine emitted, which may exceed the
// shaped rows delivered.
func RunShaped(ctx context.Context, run RunFunc, p *core.Problem, sh *Shape, stats *certificate.Stats, emit func([]int) bool) error {
	if sh.Identity() {
		return run(ctx, p, stats, emit)
	}
	if sh.Empty {
		return nil
	}
	if len(sh.Aggregates) > 0 {
		return runAggregated(ctx, run, p, sh, stats, emit)
	}
	var seen map[string]struct{}
	if sh.Distinct {
		seen = map[string]struct{}{}
	}
	if len(sh.Cols) > len(p.GAO) {
		return fmt.Errorf("engine: shape of %d columns over %d-column tuples", len(sh.Cols), len(p.GAO))
	}
	var keyBuf []byte
	perm := make([]int, len(sh.Cols))
	return run(ctx, p, stats, func(t []int) bool {
		if sh.Bounds != nil && !sh.inBounds(t) {
			return true
		}
		if seen != nil {
			keyBuf = appendKey(keyBuf[:0], t, sh.Cols)
			if _, dup := seen[string(keyBuf)]; dup {
				return true
			}
			seen[string(keyBuf)] = struct{}{}
		}
		for i, c := range sh.Cols {
			perm[i] = t[c]
		}
		out := t[:len(perm):len(perm)]
		copy(out, perm)
		return emit(out)
	})
}

// runAggregated folds the raw emission into per-group aggregate states
// and emits one row per non-empty group, sorted by group key.
func runAggregated(ctx context.Context, run RunFunc, p *core.Problem, sh *Shape, stats *certificate.Stats, emit func([]int) bool) error {
	groups := map[string]*group{}
	var keyBuf []byte
	err := run(ctx, p, stats, func(t []int) bool {
		if sh.Bounds != nil && !sh.inBounds(t) {
			return true
		}
		keyBuf = appendKey(keyBuf[:0], t, sh.Cols)
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &group{key: make([]int, len(sh.Cols)), aggs: make([]aggState, len(sh.Aggregates))}
			for i, c := range sh.Cols {
				g.key[i] = t[c]
			}
			groups[string(keyBuf)] = g
		}
		for i, a := range sh.Aggregates {
			st := &g.aggs[i]
			v := 0
			if a.Col >= 0 {
				v = t[a.Col]
			}
			switch a.Op {
			case AggCount:
				st.count++
			case AggSum:
				st.sum += int64(v)
			case AggMin:
				if st.count == 0 || v < st.min {
					st.min = v
				}
				st.count++
			case AggMax:
				if st.count == 0 || v > st.max {
					st.max = v
				}
				st.count++
			case AggCountDistinct:
				if st.distinct == nil {
					st.distinct = map[int]struct{}{}
				}
				st.distinct[v] = struct{}{}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	rows := make([]*group, 0, len(groups))
	for _, g := range groups {
		rows = append(rows, g)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].key, rows[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	for _, g := range rows {
		out := make([]int, 0, len(g.key)+len(sh.Aggregates))
		out = append(out, g.key...)
		for i, a := range sh.Aggregates {
			st := &g.aggs[i]
			switch a.Op {
			case AggCount:
				out = append(out, int(st.count))
			case AggSum:
				out = append(out, int(st.sum))
			case AggMin:
				out = append(out, st.min)
			case AggMax:
				out = append(out, st.max)
			case AggCountDistinct:
				out = append(out, len(st.distinct))
			}
		}
		if !emit(out) {
			return nil
		}
	}
	return nil
}
