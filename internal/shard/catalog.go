package shard

import (
	"fmt"
	"io"
	"sync"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/relio"
	"minesweeper/internal/storage"
)

// ReplicaStat describes one replica of a shard for /stats.
type ReplicaStat struct {
	Replica int           `json:"replica"`
	Primary bool          `json:"primary"`
	Down    string        `json:"down,omitempty"`
	Storage storage.Stats `json:"storage"`
}

// ShardStat describes one shard for /stats.
type ShardStat struct {
	Shard     int           `json:"shard"`
	Primary   int           `json:"primary"`
	Relations int           `json:"relations"`
	Tuples    int           `json:"tuples"`
	Degraded  string        `json:"degraded,omitempty"`
	Storage   storage.Stats `json:"storage"`
	Replicas  []ReplicaStat `json:"replicas,omitempty"`
}

// Catalog is the serving tier's one data owner: N per-shard fragment
// sets, each one catalog.Catalog held once in memory and logged to R
// replica members (a storage.Backend and WAL directory each), and every
// relation whole for parses, reads and plans — a query is built against
// and runs over whole relations; fragments serve durability, and a range
// partition's splits cut a run's morsels (Prepared).
// One shard, one replica and the memory backend are parameters (New,
// NewReplicated), not other types.
//
// With several shards the whole relations live in a gathered in-memory
// copy (view) that every mutation is also applied to. With one shard a
// gather of one fragment is that fragment, so there is no copy: shard
// 0's catalog is read in place. Either way a tuple lives in memory once
// per copy, never once per replica, and no relation object changes
// identity when a replica fails or is reopened.
//
// Mutations route tuples by each relation's Partition; each shard's
// catalog logs the record to its live replicas and applies it once.
// A replica that fails to take a record its siblings accepted is
// marked down and, if it was the primary, the next live one takes its
// place — so a single replica failure never flips the shard read-only.
// Failover is a write-path event only: a run streams the in-memory
// state its plan pinned, which no storage fault can change.
type Catalog struct {
	n   int
	r   int
	dir string // "" for in-memory

	// mu serializes mutations and partition changes, and runs pin
	// their plans under it (see Prepared.StreamContextExplained).
	mu     sync.Mutex
	shards []*catalog.Catalog
	view   *catalog.Catalog // gathered copy; nil with one shard
	parts  map[string]Partition
}

func newCatalog(shards, replicas int, dir string) *Catalog {
	shards, replicas = max(shards, 1), max(replicas, 1)
	c := &Catalog{
		n:      shards,
		r:      replicas,
		dir:    dir,
		shards: make([]*catalog.Catalog, shards),
		parts:  make(map[string]Partition),
	}
	if shards > 1 {
		c.view = catalog.New()
	}
	return c
}

// New returns an in-memory catalog (no durability, one replica per
// shard).
func New(shards int) *Catalog { return NewReplicated(shards, 1) }

// NewReplicated returns an in-memory catalog with R memory replicas
// per shard.
func NewReplicated(shards, replicas int) *Catalog {
	c := newCatalog(shards, replicas, "")
	for i := range c.shards {
		members := make([]storage.Backend, c.r)
		for j := range members {
			members[j] = storage.NewMem()
		}
		c.shards[i], _ = catalog.Open(members...) // memory recovery cannot fail
	}
	return c
}

// whole returns the catalog holding every relation whole: the gathered
// copy, or — with one shard, where a gather of one fragment is that
// fragment — shard 0's catalog. Both are set once at construction.
func (c *Catalog) whole() *catalog.Catalog {
	if c.view == nil {
		return c.shards[0]
	}
	return c.view
}

// rebuildViewLocked resynchronizes the gathered copy of one relation
// with the union of its fragments — the generic repair after a
// mutation applied to only part of the shard set. One shard has no
// copy to repair.
func (c *Catalog) rebuildViewLocked(name string) {
	if c.view == nil {
		return
	}
	if vars, gathered, _ := c.gatherLocked(name); vars != nil {
		c.view.CreateOrReplace(name, vars, gathered)
		return
	}
	c.view.Drop(name)
}

// gatherLocked unions the shards' fragments of one relation: its
// default binding (nil when no shard has it), every row, and the sum of
// the fragment epochs.
func (c *Catalog) gatherLocked(name string) (vars []string, tuples [][]int, epochs uint64) {
	for _, cc := range c.shards {
		rel, ok := cc.Get(name)
		if !ok {
			continue
		}
		if vars == nil {
			vars, _ = cc.Vars(name)
		}
		tuples = append(tuples, rel.Tuples()...)
		epochs += rel.Epoch()
	}
	return vars, tuples, epochs
}

// Shards returns the shard count.
func (c *Catalog) Shards() int { return c.n }

// ReplicaCount returns the per-shard replica count.
func (c *Catalog) ReplicaCount() int { return c.r }

// PartitionOf returns the relation's current partition. ok is false for
// unknown relations and for relations left unpartitioned by a partial
// replace failure (those run unsliced until repaired).
func (c *Catalog) PartitionOf(name string) (Partition, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[name]
	return p, ok
}

// mutation is one catalog mutation over a tuple batch: a shard's
// catalog gets its bucket, the gathered copy the whole batch.
type mutation func(cc *catalog.Catalog, tuples [][]int) (catalog.Info, error)

// fragmentsLocked applies op to every shard with work — a non-empty
// bucket, or any bucket when all is set (mutations that rewrite or
// remove the relation touch every fragment); an empty batch still goes
// to shard 0 so the no-op answers. It returns the Info of the last
// shard touched.
func (c *Catalog) fragmentsLocked(tuples [][]int, buckets [][][]int, all bool, op mutation) (info catalog.Info, err error) {
	for i, b := range buckets {
		if len(b) == 0 && !all && (i > 0 || len(tuples) > 0) {
			continue
		}
		if info, err = op(c.shards[i], b); err != nil {
			return catalog.Info{}, c.shardErr(i, err)
		}
	}
	return info, nil
}

// shardErr marks a mutation shard i could not log on any replica: with
// no live replica left the shard is read-only, and the error (which
// then wraps catalog.ErrReadOnly) names it.
func (c *Catalog) shardErr(i int, err error) error {
	if err != nil && c.shards[i].Healthy() != nil {
		return fmt.Errorf("shard %d: no healthy replica: %w", i, err)
	}
	return err
}

// degraded is nil while shard i has a live replica.
func (c *Catalog) degraded(i int) error {
	if err := c.shards[i].Healthy(); err != nil {
		return fmt.Errorf("shard %d: no healthy replica: %w", i, err)
	}
	return nil
}

// routeLocked applies op to the fragments (fragmentsLocked) and then,
// with the whole batch, to the gathered copy; it returns the whole
// relation's post-mutation Info. With one shard the fragment just
// mutated is the whole relation, so its Info is the answer.
func (c *Catalog) routeLocked(name string, tuples [][]int, buckets [][][]int, all bool, op mutation) (catalog.Info, error) {
	info, err := c.fragmentsLocked(tuples, buckets, all, op)
	if err != nil || c.view == nil {
		return info, err
	}
	return op(c.view, tuples)
}

// lookupLocked finds the whole relation a mutation names and validates
// the batch against it before any tuple is routed: routing indexes into
// tuples by the partition column, so arity and domain must hold first.
func (c *Catalog) lookupLocked(name string, tuples [][]int) (*minesweeper.Relation, error) {
	rel, ok := c.whole().Get(name)
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	return rel, catalog.CheckTuples(name, rel.Arity(), tuples)
}

// rewriteLocked replaces every fragment of name by its bucket of tuples
// under p, and the gathered copy by all of them. A shard-wide failure
// leaves fragments under two different layouts, which breaks the
// colocation invariant — the relation is demoted to unpartitioned
// (gathered execution only) until a restart repartitions it.
func (c *Catalog) rewriteLocked(name string, p Partition, tuples [][]int, op mutation) (catalog.Info, error) {
	info, err := c.routeLocked(name, tuples, p.split(tuples, c.n), true, op)
	if err != nil {
		delete(c.parts, name)
		c.rebuildViewLocked(name)
		c.writeManifest()
		return catalog.Info{}, err
	}
	c.parts[name] = p
	return info, c.writeManifest()
}

// Create splits the tuples under a planner-chosen partition and creates
// the owning fragment on every shard; it returns the whole relation.
func (c *Catalog) Create(name string, vars []string, tuples [][]int) (*minesweeper.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := catalog.CheckNew(name, vars); err != nil {
		return nil, err
	}
	if _, dup := c.whole().Get(name); dup {
		return nil, fmt.Errorf("catalog: relation %q already exists", name)
	}
	if err := catalog.CheckTuples(name, len(vars), tuples); err != nil {
		return nil, err
	}
	p := choosePartition(vars, tuples, c.n)
	if _, err := c.routeLocked(name, tuples, p.split(tuples, c.n), true, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		_, err := cc.Create(name, vars, b)
		return catalog.Info{}, err
	}); err != nil {
		c.dropEverywhereLocked(name)
		return nil, err
	}
	c.parts[name] = p
	if err := c.writeManifest(); err != nil {
		return nil, err
	}
	rel, _ := c.whole().Get(name)
	return rel, nil
}

// dropEverywhereLocked rolls a partially created relation back off
// every shard (best effort — a failure just leaves a dangling fragment,
// which recovery gathers and repartitions).
func (c *Catalog) dropEverywhereLocked(name string) {
	for _, cc := range c.shards {
		if _, ok := cc.Get(name); ok {
			cc.Drop(name)
		}
	}
}

// mutate is Insert and Delete: validate the batch, route it to the
// owning fragments by the relation's partition, apply per shard and to
// the gathered copy. It returns the whole relation's tuple count before
// and Info after. A relation left unpartitioned by a partial replace
// failure runs unsliced until recovery repartitions it, so
// placement is free: inserts park on shard 0, deletes broadcast to
// every shard (correct under any placement). On a shard-wide failure
// the gathered copy is rebuilt from the fragments so reads stay
// consistent with what was durably applied; the colocation invariant
// is unaffected (every applied copy was routed).
func (c *Catalog) mutate(name string, tuples [][]int, broadcast bool, op mutation) (int, catalog.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, err := c.lookupLocked(name, tuples)
	if err != nil {
		return 0, catalog.Info{}, err
	}
	buckets := make([][][]int, c.n)
	if p, ok := c.parts[name]; ok {
		buckets = p.split(tuples, c.n)
	} else {
		for i := range buckets {
			if i == 0 || broadcast {
				buckets[i] = tuples
			}
		}
	}
	before := rel.Len()
	info, err := c.routeLocked(name, tuples, buckets, false, op)
	if err != nil {
		c.rebuildViewLocked(name)
	}
	return before, info, err
}

// Insert adds the tuples and returns the whole relation's Info.
func (c *Catalog) Insert(name string, tuples ...[]int) (catalog.Info, error) {
	_, info, err := c.mutate(name, tuples, false, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		return cc.Insert(name, b...)
	})
	return info, err
}

// Delete removes every stored copy of each tuple and reports how many
// rows went.
func (c *Catalog) Delete(name string, tuples ...[]int) (int, catalog.Info, error) {
	before, info, err := c.mutate(name, tuples, true, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		_, info, err := cc.Delete(name, b...)
		return info, err
	})
	if err != nil {
		return 0, info, err
	}
	return before - info.Tuples, info, nil
}

// Replace swaps the relation's contents, re-choosing its partition for
// the new data and rewriting every fragment.
func (c *Catalog) Replace(name string, tuples [][]int) (catalog.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.lookupLocked(name, tuples); err != nil {
		return catalog.Info{}, err
	}
	vars, _ := c.whole().Vars(name)
	return c.rewriteLocked(name, choosePartition(vars, tuples, c.n), tuples, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		return cc.Replace(name, b)
	})
}

// ForcePartition rewrites the relation's fragments under an explicitly
// given partition — an administrative/testing hook for exercising a
// routing mode the statistics would not choose. The partition must pass
// Partition.check. The whole relation keeps its rows, so the gathered
// copy is left alone.
func (c *Catalog) ForcePartition(name string, p Partition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, err := c.lookupLocked(name, nil)
	if err != nil {
		return err
	}
	if err := p.check(rel.Arity(), c.n); err != nil {
		return err
	}
	vars, _ := c.whole().Vars(name)
	tuples := rel.Tuples()
	_, err = c.fragmentsLocked(tuples, p.split(tuples, c.n), true, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		return cc.CreateOrReplace(name, vars, b)
	})
	if err != nil {
		delete(c.parts, name)
		c.rebuildViewLocked(name)
	} else {
		c.parts[name] = p
	}
	if merr := c.writeManifest(); err == nil {
		err = merr
	}
	return err
}

// Drop removes the relation from every shard.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.lookupLocked(name, nil); err != nil {
		return err
	}
	if _, err := c.routeLocked(name, nil, make([][][]int, c.n), true, func(cc *catalog.Catalog, _ [][]int) (catalog.Info, error) {
		if _, ok := cc.Get(name); !ok {
			return catalog.Info{}, nil
		}
		return catalog.Info{}, cc.Drop(name)
	}); err != nil {
		c.rebuildViewLocked(name)
		return err
	}
	delete(c.parts, name)
	return c.writeManifest()
}

// Load reads a relation in the relio interchange format and
// creates-or-replaces it, splitting the parsed rows across the shard
// set under a freshly chosen partition.
func (c *Catalog) Load(r io.Reader, source string) (catalog.Info, error) {
	parsed, err := relio.ReadRelation(r, source)
	if err != nil {
		return catalog.Info{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rel, exists := c.whole().Get(parsed.Name); exists && rel.Arity() != len(parsed.Vars) {
		return catalog.Info{}, fmt.Errorf("catalog: relation %q exists with arity %d, load has arity %d (drop it first)",
			parsed.Name, rel.Arity(), len(parsed.Vars))
	}
	if err := catalog.CheckTuples(parsed.Name, len(parsed.Vars), parsed.Tuples); err != nil {
		return catalog.Info{}, err
	}
	p := choosePartition(parsed.Vars, parsed.Tuples, c.n)
	return c.rewriteLocked(parsed.Name, p, parsed.Tuples, func(cc *catalog.Catalog, b [][]int) (catalog.Info, error) {
		return cc.CreateOrReplace(parsed.Name, parsed.Vars, b)
	})
}

// Get returns the whole relation: queries parse, plan and run against
// whole relations.
func (c *Catalog) Get(name string) (*minesweeper.Relation, bool) { return c.whole().Get(name) }

// Fragment returns the relation's fragment on one shard.
func (c *Catalog) Fragment(shard int, name string) (*minesweeper.Relation, bool) {
	return c.shards[shard].Get(name)
}

// Len returns the number of cataloged relations.
func (c *Catalog) Len() int { return c.whole().Len() }

// Relations describes every cataloged relation (whole-relation totals).
func (c *Catalog) Relations() []catalog.Info { return c.whole().Relations() }

// Dump writes the whole relation in the relio interchange format.
func (c *Catalog) Dump(w io.Writer, name string) error { return c.whole().Dump(w, name) }

// Query parses a textual join expression against the whole relations.
func (c *Catalog) Query(expr string) (*minesweeper.Query, error) { return c.whole().Query(expr) }

// PutQueryDef stores a prepared-query definition durably on shard 0
// (definitions are control-plane state, not partitioned data).
func (c *Catalog) PutQueryDef(def storage.QueryDef) error {
	return c.shardErr(0, c.shards[0].PutQueryDef(def))
}

// DropQueryDef removes a stored definition.
func (c *Catalog) DropQueryDef(name string) error {
	return c.shardErr(0, c.shards[0].DropQueryDef(name))
}

// QueryDefs returns the stored definitions.
func (c *Catalog) QueryDefs() []storage.QueryDef { return c.shards[0].QueryDefs() }

// Close releases every replica's backend and the gathered copy.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i, cc := range c.shards {
		if cc == nil {
			continue // an open that failed part-way
		}
		if err := cc.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if c.view != nil {
		if err := c.view.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StorageStats aggregates the shards' primary-replica storage
// statistics (counters summed, mode and sequence from shard 0, Dir the
// data-dir root) — one copy of the data, matching the unreplicated
// meaning.
func (c *Catalog) StorageStats() storage.Stats {
	agg := c.shards[0].StorageStats()
	agg.Dir = c.dir
	for _, cc := range c.shards[1:] {
		s := cc.StorageStats()
		agg.WALRecords += s.WALRecords
		agg.WALBytes += s.WALBytes
		agg.Snapshots += s.Snapshots
		agg.SnapshotBytes += s.SnapshotBytes
		agg.Syncs += s.Syncs
		agg.RecoveredRelations += s.RecoveredRelations
		agg.RecoveredQueries += s.RecoveredQueries
		agg.ReplayedRecords += s.ReplayedRecords
		agg.TruncatedBytes += s.TruncatedBytes
		if agg.LastError == "" {
			agg.LastError = s.LastError
		}
	}
	return agg
}

// ShardStats describes every shard for /stats: per-shard data volume
// and per-replica storage health.
func (c *Catalog) ShardStats() []ShardStat {
	out := make([]ShardStat, c.n)
	for i, cc := range c.shards {
		st := ShardStat{Shard: i}
		for _, info := range cc.Relations() {
			st.Relations++
			st.Tuples += info.Tuples
		}
		if err := c.degraded(i); err != nil {
			st.Degraded = err.Error()
		}
		members := cc.Members()
		st.Replicas = make([]ReplicaStat, len(members))
		for j, m := range members {
			rs := ReplicaStat{Replica: j, Primary: m.Primary, Storage: m.Storage}
			if m.Err != nil {
				rs.Down = m.Err.Error()
			}
			if m.Primary {
				st.Primary, st.Storage = j, m.Storage
			}
			st.Replicas[j] = rs
		}
		out[i] = st
	}
	return out
}
