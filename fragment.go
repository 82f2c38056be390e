package minesweeper

import (
	"minesweeper/internal/planner"
	"minesweeper/internal/reltree"
)

// Fragment is the data-access seam between query execution and data
// ownership: everything the prepare/bind pipeline — and through it the
// five engines and the shaping adapter — needs from a relation, with no
// way to reach the mutation surface. An engine run consumes exactly
// this interface: ordered index views for a set of column permutations
// (gap probes and range scans run against the returned trees), raw
// tuple snapshots for dictionary builds, per-column statistics for the
// planner, and the epoch stamp that makes staleness observable. Every
// method is safe for concurrent use and consistent under one call (a
// snapshot and its epoch are taken under one lock acquisition).
//
// *Relation is the one implementation. internal/shard partitions
// catalog relations across N shards for durability, but a query binds
// the whole relations: a range partition on the leading GAO attribute
// only cuts the run's morsels (PreparedQuery.Pin), it never swaps a
// fragment in. The methods are all value-shaped (names, counts, tuple
// rows, permutations), so a cross-process fragment would be a new
// implementation, not another refactor.
type Fragment interface {
	// Name identifies the fragment's relation (fragments of one sharded
	// relation share its name).
	Name() string
	// Arity returns the number of columns.
	Arity() int
	// Len returns the number of stored tuples (before deduplication).
	Len() int
	// Epoch returns the mutation counter prepared queries use to detect
	// staleness.
	Epoch() uint64
	// Tuples returns a snapshot of the stored tuples (rows shared with
	// the fragment and not to be modified; outer slice caller-owned).
	Tuples() [][]int
	// SnapshotTuples returns the stored tuples together with the epoch
	// they reflect, under one lock acquisition.
	SnapshotTuples() ([][]int, uint64)
	// IndexesFor returns the fragment's search trees for the given
	// column permutations — building and caching missing ones — plus
	// the epoch the trees reflect, all under one lock acquisition so a
	// self-join binds one consistent version.
	IndexesFor(perms [][]int) ([]*reltree.Tree, uint64, error)
	// ColStats returns the per-column statistics the GAO planner costs
	// orders from (cached; recomputed after mutations).
	ColStats() *planner.RelStats
}

// Atoms returns a copy of the query's atoms as validated: constant
// columns appear rewritten to their hidden attribute names (which start
// with '#', so they can never collide with query variables). The shard
// layer inspects these bindings to find an atom whose partition column
// is bound to the leading GAO attribute.
func (q *Query) Atoms() []Atom {
	out := make([]Atom, len(q.atoms))
	for i, a := range q.atoms {
		out[i] = Atom{Rel: a.Rel, Vars: append([]string(nil), a.Vars...)}
	}
	return out
}
