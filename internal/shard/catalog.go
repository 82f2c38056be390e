package shard

import (
	"minesweeper/internal/catalog"
	"minesweeper/internal/storage"
)

// ReplicaStat describes one replica of a shard for /stats.
type ReplicaStat struct {
	Replica int           `json:"replica"`
	Primary bool          `json:"primary"`
	Down    string        `json:"down,omitempty"`
	Storage storage.Stats `json:"storage"`
}

// ShardStat describes one shard for /stats: Relations and Tuples count
// what the shard's log holds — the relations it has a bucket of and
// their rows.
type ShardStat struct {
	Shard     int           `json:"shard"`
	Primary   int           `json:"primary"`
	Relations int           `json:"relations"`
	Tuples    int           `json:"tuples"`
	Degraded  string        `json:"degraded,omitempty"`
	Storage   storage.Stats `json:"storage"`
	Replicas  []ReplicaStat `json:"replicas,omitempty"`
}

// Catalog is the serving tier's one data owner: one in-memory relation
// set, a catalog.Catalog, logged to N shard logs, each kept on R
// replica members (a storage.Backend and WAL directory each). Every
// relation exists once in memory, whatever N and R are; a query is
// built against and runs over it, and a range partition's splits cut a
// run's morsels (Prepared). One shard, one replica and the memory
// backend are parameters (New, NewReplicated), not other types.
//
// A mutation's rows are routed to the shard logs by the relation's
// Partition, which the shards.json manifest keeps; each log takes its
// record on its live replicas, and the mutation is applied in memory
// once. A replica that fails to take a record its siblings accepted is
// marked down and, if it was the primary, the next live one takes its
// place — so a single replica failure never flips the shard read-only.
// Failover is a write-path event only: a run streams the in-memory
// state its plan pinned, which no storage fault can change, and no
// relation object changes identity when a replica fails or is reopened.
type Catalog struct {
	*catalog.Catalog
	n   int
	r   int
	dir string // "" for in-memory
}

// open recovers the relation set from one member list per shard; a
// relation keeps its partition in parts if that can still route it.
func open(shards, replicas int, dir string, parts map[string]Partition, logs [][]storage.Backend) (*Catalog, error) {
	cat, err := catalog.OpenLogs(&router{shards, replicas, dir, parts}, logs...)
	if err != nil {
		return nil, err
	}
	return &Catalog{Catalog: cat, n: shards, r: replicas, dir: dir}, nil
}

// New returns an in-memory catalog (no durability, one replica per
// shard).
func New(shards int) *Catalog { return NewReplicated(shards, 1) }

// NewReplicated returns an in-memory catalog with R memory replicas
// per shard.
func NewReplicated(shards, replicas int) *Catalog {
	shards, replicas = max(shards, 1), max(replicas, 1)
	logs := make([][]storage.Backend, shards)
	for i := range logs {
		for j := 0; j < replicas; j++ {
			logs[i] = append(logs[i], storage.NewMem())
		}
	}
	c, _ := open(shards, replicas, "", nil, logs) // memory recovery cannot fail
	return c
}

// Shards returns the shard count.
func (c *Catalog) Shards() int { return c.n }

// ReplicaCount returns the per-shard replica count.
func (c *Catalog) ReplicaCount() int { return c.r }

// PartitionOf returns the relation's current partition. ok is false for
// unknown relations and for relations a rewrite reached on only some
// shards (those run unsliced and refuse writes until a restart
// repartitions them).
func (c *Catalog) PartitionOf(name string) (p Partition, ok bool) {
	c.Pin(func(v catalog.View) {
		_, l, _ := v.Get(name)
		p, ok = l.(Partition)
	})
	return p, ok
}

// ForcePartition re-routes the relation's rows under an explicitly
// given partition — an administrative/testing hook for exercising a
// routing mode the statistics would not choose. The partition must pass
// Partition.Check. The relation keeps its rows.
func (c *Catalog) ForcePartition(name string, p Partition) error { return c.Relayout(name, p) }

// StorageStats aggregates the shards' primary-replica storage
// statistics (catalog.Catalog.StorageStats; Dir the data-dir root).
func (c *Catalog) StorageStats() storage.Stats {
	agg := c.Catalog.StorageStats()
	agg.Dir = c.dir
	return agg
}

// ShardStats describes every shard for /stats: what its log holds and
// per-replica storage health.
func (c *Catalog) ShardStats() []ShardStat {
	logs := c.LogStats()
	out := make([]ShardStat, len(logs))
	for i, l := range logs {
		st := ShardStat{Shard: i, Relations: l.Relations, Tuples: l.Tuples, Replicas: make([]ReplicaStat, len(l.Members))}
		if l.Err != nil {
			st.Degraded = l.Err.Error()
		}
		for j, m := range l.Members {
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
