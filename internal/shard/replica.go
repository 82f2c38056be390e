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

// Degraded reports the first shard with no healthy replica, if any:
// with replication a single dead replica is survivable (its siblings
// keep taking records), so only a fully dead shard makes the store
// read-only and /readyz unready.
func (c *Catalog) Degraded() error { return c.Healthy() }

// DownReplicas lists every replica currently unable to take records —
// marked down for missing a record its siblings accepted, or with a
// poisoned backend — for the serving layer to reopen on independent
// schedules.
func (c *Catalog) DownReplicas() []ReplicaRef {
	var out []ReplicaRef
	for i, l := range c.LogStats() {
		for j, m := range l.Members {
			if m.Err != nil {
				out = append(out, ReplicaRef{Shard: i, Replica: j, Err: m.Err.Error()})
			}
		}
	}
	return out
}

// ReopenReplica restarts one replica on a fresh backend from open and
// compacts the shard log's state, rendered from memory, into it
// (catalog.Catalog.ReopenMember), so it rejoins in sync. Mutations pause
// meanwhile; runs in flight keep the relation objects they bound, which
// the reopen does not touch.
func (c *Catalog) ReopenReplica(i, j int, open func() (storage.Backend, error)) error {
	if err := c.ReopenMember(i, j, open); err != nil {
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
