package minesweeper

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"minesweeper/internal/planner"
	"minesweeper/internal/reltree"
	"minesweeper/internal/rows"
)

// Relation is a set of tuples of fixed arity with non-negative integer
// components (the paper's ℕ domains). The same Relation may be bound by
// several atoms of a query (self-joins).
//
// The tuples live in one flat, row-major buffer kept in canonical
// sorted order (lexicographic by column; duplicates are kept, adjacent,
// and collapse under set semantics at indexing time). The buffer is
// never modified in place: Insert and Delete sort their batch and merge
// it into a fresh copy, so a Tuples snapshot or a search tree handed out
// earlier stays valid and unchanged whatever happens to the relation
// afterwards.
//
// A Relation owns its index cache: the first execution that needs the
// relation sorted under some column order builds a search tree and
// caches it keyed by that column permutation, so later executions —
// through this query or any other — reuse it. Cached indexes survive
// Insert and Delete: the batches are logged, and the next execution
// that asks for an index merges what it missed into the old tree
// (reltree.Merge) instead of re-sorting the relation, so the first read
// after a write costs O(rows) copying rather than a rebuild. Only
// Replace starts over. Prepared queries bound to an earlier epoch detect
// a mutation and transparently re-prepare (see PreparedQuery). All
// methods are safe for concurrent use.
type Relation struct {
	name  string
	arity int

	mu    sync.Mutex
	epoch uint64
	store []int // immutable, sorted, row-major
	// indexes caches one search tree per column order it was asked for.
	indexes map[string]*cachedIndex
	// pending holds the most recent Insert/Delete batches, oldest first:
	// as many as the cached index furthest behind still has to absorb.
	// seq counts the batches ever applied, so pending[i] is batch number
	// seq-len(pending)+i.
	pending []batch
	seq     uint64
	// cols[c], for c ≥ 1, is column c's stored values in ascending order,
	// merged forward with every batch once ColStats has asked for them
	// (column 0 is read off the sorted store). stats caches the summary
	// the GAO planner costs orders from; any mutation drops it, so
	// prepared queries re-plan exactly when the data changed.
	cols  [][]int
	stats *planner.RelStats
}

// cachedIndex is one search tree of the index cache.
type cachedIndex struct {
	perm []int
	tree *reltree.Tree
	seq  uint64 // batches the tree reflects: current when equal to Relation.seq
	// behind counts the rows logged since. An index nobody asks for is
	// dropped once they outnumber its own tuples: carrying the batches
	// any longer would pin more memory than the index a rebuild replaces.
	behind int
}

// batch is one logged mutation: sorted rows in the store's column
// order, inserted or deleted. Immutable once logged.
type batch struct {
	rows []int
	del  bool
}

// permKey renders a column permutation as a cache key.
func permKey(perm []int) string {
	var b strings.Builder
	for i, p := range perm {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// NewRelation validates and copies the given tuples. Duplicates are
// allowed and collapse under set semantics at indexing time.
func NewRelation(name string, arity int, tuples [][]int) (*Relation, error) {
	if arity < 1 {
		return nil, fmt.Errorf("minesweeper: relation %q: arity %d < 1", name, arity)
	}
	r := &Relation{name: name, arity: arity}
	store, err := r.sorted(tuples)
	if err != nil {
		return nil, err
	}
	r.store = store
	return r, nil
}

// sorted validates the tuples — arity and the index domain
// [0, ordered.PosInf): rejecting a bad row here, before it is stored,
// keeps it from poisoning every later execution — and returns them as a
// sorted flat copy.
func (r *Relation) sorted(tuples [][]int) ([]int, error) {
	flat, err := rows.Flatten(r.arity, tuples)
	if err != nil {
		return nil, fmt.Errorf("minesweeper: relation %q: %w", r.name, err)
	}
	return rows.Sort(flat, r.arity), nil
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of stored tuples (before deduplication).
func (r *Relation) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.store) / r.arity
}

// Epoch returns the relation's mutation counter. Every successful
// Insert, Delete or Replace that changes the stored tuples increments
// it; prepared queries use it to detect staleness.
func (r *Relation) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// RestoreEpoch fast-forwards the relation's epoch counter without
// touching the stored tuples or caches. Storage recovery uses it to
// rebuild a relation at the epoch its durable log recorded, so prepared
// queries and planner statistics see the same staleness signal across a
// restart as they would have in the original process. The epoch can
// only move forward: rewinding would let a prepared query mistake new
// data for the version it is bound to.
func (r *Relation) RestoreEpoch(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.epoch {
		return fmt.Errorf("minesweeper: relation %q: cannot rewind epoch %d to %d", r.name, r.epoch, epoch)
	}
	r.epoch = epoch
	return nil
}

// Tuples returns a snapshot of the stored tuples, in sorted order. The
// rows alias the relation's (immutable) store and must not be modified;
// the outer slice is the caller's.
func (r *Relation) Tuples() [][]int {
	tuples, _ := r.SnapshotTuples()
	return tuples
}

// SnapshotTuples returns the stored tuples (see Tuples) together with
// the epoch they reflect, under one lock acquisition.
func (r *Relation) SnapshotTuples() ([][]int, uint64) {
	r.mu.Lock()
	store, epoch := r.store, r.epoch
	r.mu.Unlock()
	return rows.Views(store, r.arity), epoch
}

// IndexesFor returns the relation's search trees for the given column
// permutations together with the epoch the trees reflect. A missing
// index is built from the store and cached; a cached one that mutations
// have overtaken is brought up to date by merging the batches it missed.
// All trees are fetched under a single lock acquisition, so every atom
// of a query that binds this relation sees one consistent version even
// while mutations race with the binding (no torn self-joins).
func (r *Relation) IndexesFor(perms [][]int) ([]*reltree.Tree, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	trees := make([]*reltree.Tree, len(perms))
	for i, perm := range perms {
		key := permKey(perm)
		idx := r.indexes[key]
		switch {
		case idx == nil:
			if err := r.checkPerm(perm); err != nil {
				return nil, 0, err
			}
			idx = &cachedIndex{perm: slices.Clone(perm)}
			idx.tree = reltree.NewSorted(r.name, r.arity, r.reorder(r.store, perm))
			if r.indexes == nil {
				r.indexes = map[string]*cachedIndex{}
			}
			r.indexes[key] = idx
		case idx.seq != r.seq:
			idx.tree = r.caughtUp(idx)
		}
		idx.seq, idx.behind = r.seq, 0
		trees[i] = idx.tree
	}
	r.trimPending()
	return trees, r.epoch, nil
}

// checkPerm rejects a column order that is not over this relation's
// columns.
func (r *Relation) checkPerm(perm []int) error {
	ok := len(perm) == r.arity
	for _, c := range perm {
		ok = ok && c >= 0 && c < r.arity
	}
	if !ok {
		return fmt.Errorf("minesweeper: relation %q: column order %v does not fit arity %d", r.name, perm, r.arity)
	}
	return nil
}

// reorder returns sorted store-order rows re-sorted under the column
// order perm: a permuted, sorted copy — or flat itself when perm is the
// identity.
func (r *Relation) reorder(flat []int, perm []int) []int {
	identity := true
	for j, c := range perm {
		identity = identity && j == c
	}
	if identity {
		return flat
	}
	return rows.Sort(rows.Permute(flat, r.arity, perm), r.arity)
}

// caughtUp returns idx's tree brought up to the relation's current
// state. The batches it missed are first folded into one net change —
// a row's presence is decided by the last batch naming it — so the old
// tree is streamed through reltree.Merge once however many mutations
// went by. Callers hold r.mu.
func (r *Relation) caughtUp(idx *cachedIndex) *reltree.Tree {
	var adds, dels []int
	for _, b := range r.pending[len(r.pending)-int(r.seq-idx.seq):] {
		if b.del {
			dels = rows.Merge(dels, b.rows, r.arity)
			adds, _ = rows.Remove(adds, b.rows, r.arity)
		} else {
			adds = rows.Merge(adds, b.rows, r.arity)
			dels, _ = rows.Remove(dels, b.rows, r.arity)
		}
	}
	return reltree.Merge(idx.tree, r.reorder(adds, idx.perm), r.reorder(dels, idx.perm))
}

// trimPending forgets the batches every cached index has absorbed.
// Callers hold r.mu.
func (r *Relation) trimPending() {
	keep := 0
	for _, idx := range r.indexes {
		keep = max(keep, int(r.seq-idx.seq))
	}
	r.pending = slices.Delete(r.pending, 0, len(r.pending)-keep)
}

// CachedIndexes reports how many GAO-permuted indexes the relation
// currently caches (one per distinct column order it has been queried
// under).
func (r *Relation) CachedIndexes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.indexes)
}

// ColStats returns the relation's cached per-column statistics,
// computing them on first use after a mutation — in O(rows), with no
// sorting: column 0 is read off the sorted store and every other column
// off its merge-maintained sorted value array. The result is exactly
// planner.Collect of the stored tuples. The planner tolerates slightly
// stale statistics (they steer order choice, not correctness).
func (r *Relation) ColStats() *planner.RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats != nil {
		return r.stats
	}
	if r.cols == nil {
		r.cols = make([][]int, r.arity)
		for c := 1; c < r.arity; c++ {
			r.cols[c] = r.column(r.store, c)
		}
	}
	st := &planner.RelStats{Rows: len(r.store) / r.arity, Cols: make([]planner.ColStat, r.arity)}
	st.Cols[0] = planner.StatSorted(r.store, r.arity)
	for c := 1; c < r.arity; c++ {
		st.Cols[c] = planner.StatSorted(r.cols[c], 1)
	}
	r.stats = st
	return st
}

// column returns column c of the flat rows, in ascending order.
func (r *Relation) column(flat []int, c int) []int {
	vals := make([]int, 0, len(flat)/r.arity)
	for i := c; i < len(flat); i += r.arity {
		vals = append(vals, flat[i])
	}
	return rows.Sort(vals, 1)
}

// apply installs the store a batch produced: bumps the epoch, drops the
// planner summary, merges the changed rows' values into the sorted
// column arrays (changed is the batch itself for an insert, the removed
// rows with their multiplicity for a delete) and logs the batch for the
// cached indexes. Callers hold r.mu.
func (r *Relation) apply(store []int, b batch, changed []int) {
	r.store = store
	r.epoch++
	r.stats = nil
	for c := 1; c < r.arity && r.cols != nil; c++ {
		vals := r.column(changed, c)
		if b.del {
			r.cols[c] = subtractSorted(r.cols[c], vals)
		} else {
			r.cols[c] = rows.Merge(r.cols[c], vals, 1)
		}
	}
	r.pending = append(r.pending, b)
	r.seq++
	for key, idx := range r.indexes {
		if idx.behind += len(b.rows) / r.arity; idx.behind > idx.tree.Size() {
			delete(r.indexes, key)
		}
	}
	r.trimPending()
}

// subtractSorted returns the ascending values of base less one
// occurrence for every element of gone, an ascending sub-multiset of it.
func subtractSorted(base, gone []int) []int {
	out := make([]int, 0, len(base)-len(gone))
	for _, v := range base {
		if len(gone) > 0 && gone[0] == v {
			gone = gone[1:]
			continue
		}
		out = append(out, v)
	}
	return out
}

// Insert adds the given tuples to the relation. The tuples are
// validated and copied; duplicates are allowed and collapse under set
// semantics at indexing time. A successful insert of at least one tuple
// bumps the relation's epoch. It costs O(rows + batch·log): the sorted
// batch is merged into a fresh copy of the store; cached indexes absorb
// it when next asked for.
func (r *Relation) Insert(tuples ...[]int) error {
	sorted, err := r.sorted(tuples)
	if err != nil || len(tuples) == 0 {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apply(rows.Merge(r.store, sorted, r.arity), batch{rows: sorted}, sorted)
	return nil
}

// Delete removes every stored copy of each given tuple and reports how
// many rows were removed. Deleting an absent tuple is not an error.
// When at least one row is removed the relation's epoch is bumped. Same
// cost as Insert.
func (r *Relation) Delete(tuples ...[]int) (int, error) {
	removed, err := r.remove(tuples)
	return len(removed) / r.arity, err
}

// DeleteRows is Delete reporting the removed rows themselves, every
// stored copy in sorted order (the rows are the caller's), so a caller
// that routes rows by value can tell where the removals fell.
func (r *Relation) DeleteRows(tuples ...[]int) ([][]int, error) {
	removed, err := r.remove(tuples)
	return rows.Views(removed, r.arity), err
}

// remove is Delete returning the removed rows flat.
func (r *Relation) remove(tuples [][]int) ([]int, error) {
	sorted, err := r.sorted(tuples)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept, removed := rows.Remove(r.store, sorted, r.arity)
	if len(removed) > 0 {
		r.apply(kept, batch{rows: sorted, del: true}, removed)
	}
	return removed, nil
}

// Replace swaps the relation's contents for the given tuples (validated
// and copied), bumping the epoch and dropping the cached indexes and
// statistics, which the next execution rebuilds from the new contents.
// Prepared queries bound to the relation transparently pick up the new
// contents on their next execution.
func (r *Relation) Replace(tuples [][]int) error {
	sorted, err := r.sorted(tuples)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = sorted
	r.epoch++
	r.indexes, r.pending, r.cols, r.stats = nil, nil, nil, nil
	return nil
}
