// Package shard divides data ownership from probe execution. Its
// Catalog holds every relation once in memory (a catalog.Catalog) and
// logs it to N logs — one per shard, each with its own WAL directories,
// kept on R replicas. A relation's Partition decides only which shard's
// log a row's record goes to: no per-shard copy of a relation exists.
// A query runs once, over the relations, exactly as unsharded; a
// range partition on the leading GAO attribute only hands its split
// points to the run as morsel boundaries (engine.Parallel), so each
// shard's range is evaluated by morsels of its own over the one index,
// with no per-shard query or merge.
//
// The partitioning invariant is purely content-based: every stored
// copy of a tuple is logged to exactly the shard its partition-column
// value routes to, so identical rows always colocate, recovery rebuilds
// a relation as the union of its shards' logs, and a range partition's
// shards are exactly the value ranges its splits cut.
package shard

import (
	"fmt"
	"sort"
	"strconv"

	"minesweeper/internal/planner"
)

// Partition records how one relation's tuples are divided across the
// shard set: the routing column, the mode, and — for range mode — the
// n-1 ascending split points (shard i owns values < Splits[i], the last
// shard owns the tail).
type Partition struct {
	Column int    `json:"column"`
	Attr   string `json:"attr,omitempty"`
	Mode   string `json:"mode"` // "hash" or "range"
	Splits []int  `json:"splits,omitempty"`
}

// Check reports whether p can route the tuples of an arity-column
// relation over shards shards: the column in range, a known mode, and
// at most shards-1 strictly increasing splits. Routing indexes tuples
// by the column and buckets by the split count, and the splits are
// morsel boundaries of sliced runs, so every partition that enters the
// catalog — forced, or read back from a manifest — passes this first.
func (p Partition) Check(arity, shards int) error {
	if p.Column < 0 || p.Column >= arity {
		return fmt.Errorf("shard: partition column %d out of range for arity %d", p.Column, arity)
	}
	if p.Mode != ModeHash && p.Mode != ModeRange {
		return fmt.Errorf("shard: unknown partition mode %q", p.Mode)
	}
	if len(p.Splits) > shards-1 {
		return fmt.Errorf("shard: %d splits for %d shards, want at most %d", len(p.Splits), shards, shards-1)
	}
	for i := 1; i < len(p.Splits); i++ {
		if p.Splits[i] <= p.Splits[i-1] {
			return fmt.Errorf("shard: range splits must be strictly increasing")
		}
	}
	return nil
}

// Route returns the shard index owning a tuple whose partition column
// holds v.
func (p Partition) Route(v, shards int) int {
	if p.Mode == ModeRange {
		return sort.SearchInts(p.Splits, v+1)
	}
	return hashRoute(v, shards)
}

// String renders the partition for plan output: "attr:mode".
func (p Partition) String() string {
	attr := p.Attr
	if attr == "" {
		attr = "#" + strconv.Itoa(p.Column)
	}
	return attr + ":" + p.Mode
}

// Partition modes.
const (
	ModeHash  = "hash"
	ModeRange = "range"
)

// hashRoute buckets a value with FNV-1a over its 8 little-endian
// bytes — stable across processes (recovery re-routes to the same
// shard) and well-mixed for strided integer domains, where v % n would
// alias the stride.
func hashRoute(v, shards int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= prime
		u >>= 8
	}
	return int(h % uint64(shards))
}

// choosePartition picks the partition for a relation snapshot: the
// planner names the column (leading attribute of the single-atom GAO)
// and gates range mode; range splits are the column's n-quantiles,
// deduplicated to a strictly increasing list. When deduplication leaves
// no usable split the partition falls back to hash. One bucket takes
// every row whatever the column, so a single shard needs no statistics.
func choosePartition(attrs []string, tuples [][]int, shards int) Partition {
	var st *planner.RelStats
	if shards > 1 {
		st = planner.Collect(tuples, len(attrs))
	}
	pc := planner.ChoosePartition(attrs, st, shards)
	p := Partition{Column: pc.Col, Attr: pc.Attr, Mode: ModeHash}
	if pc.Range {
		if splits := quantileSplits(tuples, pc.Col, shards); len(splits) > 0 {
			p.Mode, p.Splits = ModeRange, splits
		}
	}
	return p
}

// quantileSplits returns up to shards-1 strictly increasing split
// points dividing the column's stored values into near-equal runs.
func quantileSplits(tuples [][]int, col, shards int) []int {
	if len(tuples) == 0 || shards <= 1 {
		return nil
	}
	vals := make([]int, len(tuples))
	for i, tup := range tuples {
		vals[i] = tup[col]
	}
	sort.Ints(vals)
	splits := make([]int, 0, shards-1)
	for i := 1; i < shards; i++ {
		s := vals[i*len(vals)/shards]
		if len(splits) == 0 || s > splits[len(splits)-1] {
			splits = append(splits, s)
		}
	}
	return splits
}

// Split routes a tuple batch into per-shard buckets; a single bucket is
// the batch itself, row headers uncopied. It makes a Partition the
// catalog.Layout of its relation. The buckets are counted first and
// carved from one array, so a batch costs three allocations at any
// size and shard count.
func (p Partition) Split(tuples [][]int, shards int) [][][]int {
	if shards <= 1 {
		return [][][]int{tuples}
	}
	counts := make([]int, shards)
	for _, tup := range tuples {
		counts[p.Route(tup[p.Column], shards)]++
	}
	buckets, rows := make([][][]int, shards), make([][]int, len(tuples))
	for s, n := range counts {
		buckets[s], rows = rows[:0:n], rows[n:]
	}
	for _, tup := range tuples {
		s := p.Route(tup[p.Column], shards)
		buckets[s] = append(buckets[s], tup)
	}
	return buckets
}
