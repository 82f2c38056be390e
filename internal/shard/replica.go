package shard

import (
	"fmt"

	"minesweeper/internal/storage"
)

// ReplicaRef names one down replica and why, for targeted reopening.
type ReplicaRef struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Err     string `json:"error"`
}

// Primary returns the shard's primary replica: the one whose storage
// counters the shard reports.
func (c *Catalog) Primary(shard int) int { return c.shards[shard].Primary() }

// Failovers returns how many times a shard's primary moved off a failed
// replica, summed over the shards.
func (c *Catalog) Failovers() int64 {
	var n int64
	for _, cc := range c.shards {
		n += cc.Failovers()
	}
	return n
}

// Degraded reports the first shard with no healthy replica, if any:
// with replication a single dead replica is survivable (its siblings
// keep taking records), so only a fully dead shard makes the store
// read-only and /readyz unready.
func (c *Catalog) Degraded() error {
	for i := range c.shards {
		if err := c.degraded(i); err != nil {
			return err
		}
	}
	return nil
}

// DownReplicas lists every replica currently unable to take records —
// marked down for missing a record its siblings accepted, or with a
// poisoned backend — for the serving layer to reopen on independent
// schedules.
func (c *Catalog) DownReplicas() []ReplicaRef {
	var out []ReplicaRef
	for i, cc := range c.shards {
		for j, m := range cc.Members() {
			if m.Err != nil {
				out = append(out, ReplicaRef{Shard: i, Replica: j, Err: m.Err.Error()})
			}
		}
	}
	return out
}

// ReopenReplica restarts one replica on a fresh backend from open and
// compacts the shard's in-memory state into it (catalog.ReopenMember),
// so it rejoins in sync. Mutations of the shard pause meanwhile; runs
// in flight keep the relation and fragment objects they bound, which
// the reopen does not touch.
func (c *Catalog) ReopenReplica(i, j int, open func() (storage.Backend, error)) error {
	if i < 0 || i >= c.n {
		return fmt.Errorf("shard: no replica %d/%d", i, j)
	}
	if err := c.shards[i].ReopenMember(j, open); err != nil {
		return fmt.Errorf("shard %d replica %d: reopen: %w", i, j, err)
	}
	return nil
}

// RollingReopen restarts every replica one at a time — shard by shard,
// replica by replica — while each one's siblings keep serving. With
// R > 1 the store never loses a healthy replica set, so /readyz stays
// ready throughout; reads are never interrupted in any case.
func (c *Catalog) RollingReopen(open func(shard, replica int) (storage.Backend, error)) error {
	var first error
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.r; j++ {
			if err := c.ReopenReplica(i, j, func() (storage.Backend, error) { return open(i, j) }); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
