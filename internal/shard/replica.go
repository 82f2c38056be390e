package shard

import (
	"fmt"
	"reflect"
	"sort"
	"weak"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/storage"
)

// ReplicaRef names one down replica and why, for targeted reopening.
type ReplicaRef struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Err     string `json:"error"`
}

// resyncFrom brings tgt to src's exact state: relations diverging by
// epoch are force-restored (exact epoch stamp included, so later
// divergence checks hold), relations src lacks are dropped, and — for
// the control-plane shard — the query-definition registry is mirrored.
func resyncFrom(tgt, src *catalog.Catalog, defs bool) error {
	for _, info := range src.Relations() {
		srel, ok := src.Get(info.Name)
		if !ok {
			continue
		}
		if trel, ok := tgt.Get(info.Name); ok && trel.Epoch() == info.Epoch {
			continue
		}
		if err := tgt.Restore(info.Name, info.Vars, info.Epoch, srel.Tuples()); err != nil {
			return err
		}
	}
	for _, name := range tgt.Names() {
		if _, ok := src.Get(name); !ok {
			if err := tgt.Drop(name); err != nil {
				return err
			}
		}
	}
	if defs {
		want := map[string]storage.QueryDef{}
		for _, def := range src.QueryDefs() {
			want[def.Name] = def
		}
		for _, def := range tgt.QueryDefs() {
			if w, ok := want[def.Name]; ok && reflect.DeepEqual(w, def) {
				delete(want, def.Name)
				continue
			}
			if _, ok := want[def.Name]; !ok {
				if err := tgt.DropQueryDef(def.Name); err != nil {
					return err
				}
			}
		}
		names := make([]string, 0, len(want))
		for n := range want {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := tgt.PutQueryDef(want[n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// leaderLocked returns shard i's serving replica. Callers hold c.mu.
func (c *Catalog) leaderLocked(i int) *catalog.Catalog { return c.replicas[i][c.primary[i]] }

// markDownLocked records a replica failure (first cause wins) and bumps
// the plan version so plans re-bind off the dead replica.
func (c *Catalog) markDownLocked(shard, replica int, cause error) {
	if c.down[shard][replica] == nil {
		c.down[shard][replica] = cause
	}
	c.version++
}

// promoteLocked points the shard's leadership at the first healthy
// replica, reporting whether one exists. Promoting away from the
// current leader counts as a failover.
func (c *Catalog) promoteLocked(shard int) bool {
	for j, cc := range c.replicas[shard] {
		if c.replicaErrLocked(shard, j) == nil {
			if c.primary[shard] != j {
				c.movedLocked(c.leaderLocked(shard), cc)
				c.primary[shard] = j
				c.failovers.Add(1)
			}
			c.version++
			return true
		}
	}
	return false
}

// movedLocked records that a shard's serving state moved from one
// replica catalog to another (a failover, or a reopen swapping the
// serving replica's catalog). With a gathered copy nothing is recorded:
// whole relations live in the copy and keep their identity. With one
// shard each name now resolves to a different *Relation; the old and
// the new object are put in one lineage, which is what tells a query
// bound before the move from one holding a relation that was dropped
// (rebound). Callers bump c.version, which prepared queries pin.
func (c *Catalog) movedLocked(from, to *catalog.Catalog) {
	if c.view != nil {
		return
	}
	for k := range c.lineage {
		if k.Value() == nil {
			delete(c.lineage, k)
		}
	}
	for _, name := range from.Names() {
		old, _ := from.Get(name)
		cur, ok := to.Get(name)
		if !ok {
			continue
		}
		id, known := c.lineage[weak.Make(old)]
		if !known {
			c.lineages++
			id = c.lineages
			c.lineage[weak.Make(old)] = id
		}
		c.lineage[weak.Make(cur)] = id
	}
}

// rebound returns the catalog's version — what a plan pins — and q as
// bound at that version: every atom that holds a superseded object of a
// whole relation (same name, same lineage as the one served now) is
// bound to the current object. An atom holding a relation that was
// dropped (and perhaps re-created under the same name) shares no
// lineage with the current one and is left alone. A caller whose plan
// already pins the current version gets q back unexamined.
func (c *Catalog) rebound(q *minesweeper.Query, pinned uint64) (*minesweeper.Query, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pinned == c.version || len(c.lineage) == 0 {
		return q, c.version
	}
	whole := c.wholeLocked()
	swap := map[minesweeper.Fragment]minesweeper.Fragment{}
	for _, f := range q.Relations() {
		old, ok := f.(*minesweeper.Relation)
		cur, have := whole.Get(f.Name())
		if !ok || !have || cur == old {
			continue
		}
		if id, known := c.lineage[weak.Make(old)]; known && id == c.lineage[weak.Make(cur)] {
			swap[f] = cur
		}
	}
	if len(swap) == 0 {
		return q, c.version
	}
	return q.CloneWithRelations(func(_ int, f minesweeper.Fragment) minesweeper.Fragment {
		if cur, ok := swap[f]; ok {
			return cur
		}
		return f
	}), c.version
}

// replicaErrLocked reports why a replica cannot serve, nil when it can:
// its down marker if set, else its catalog's health (which asks the
// backend directly, so out-of-band poisoning — an injected sync failure
// with no intervening mutation — is caught too).
func (c *Catalog) replicaErrLocked(shard, replica int) error {
	if err := c.down[shard][replica]; err != nil {
		return err
	}
	return c.replicas[shard][replica].Healthy()
}

// shardDegradedLocked returns nil while the shard has at least one
// healthy replica; otherwise the first replica's failure.
func (c *Catalog) shardDegradedLocked(i int) error {
	var firstErr error
	for j := range c.replicas[i] {
		err := c.replicaErrLocked(i, j)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("shard %d: no healthy replica: %w", i, firstErr)
}

// applyShardLocked runs one mutation against shard i: log-then-apply on
// the primary (failing over to a healthy follower when the primary's
// store is poisoned), then synchronous fan-out to the healthy
// followers with a divergence check on rel's epoch stamp (skipped for
// control-plane mutations, rel == ""). A follower that fails to apply
// or diverges is marked down — the mutation still succeeds, and the
// primary's post-mutation Info is returned. Only when no replica can
// accept the mutation does the shard surface an error (which wraps the
// primary's ErrReadOnly, so the serving layer still classifies it as
// 503 read-only).
func (c *Catalog) applyShardLocked(i int, rel string, apply func(cc *catalog.Catalog) (catalog.Info, error)) (catalog.Info, error) {
	var info catalog.Info
	for {
		lead := c.primary[i]
		cc := c.replicas[i][lead]
		if c.down[i][lead] != nil {
			if !c.promoteLocked(i) {
				return info, fmt.Errorf("shard %d: no healthy replica: %w", i, c.down[i][lead])
			}
			continue
		}
		var err error
		if info, err = apply(cc); err == nil {
			break
		}
		if cc.Healthy() != nil {
			// Storage fault: the primary poisoned itself. Mark it down,
			// promote a follower, retry there.
			c.markDownLocked(i, lead, err)
			if !c.promoteLocked(i) {
				return info, fmt.Errorf("shard %d: no healthy replica: %w", i, err)
			}
			continue
		}
		// Validation failure — deterministic, would fail identically on
		// every replica. Not a failover trigger.
		return info, err
	}
	lead := c.primary[i]
	for j, cc := range c.replicas[i] {
		if j == lead || c.down[i][j] != nil {
			continue
		}
		if _, err := apply(cc); err != nil {
			c.markDownLocked(i, j, fmt.Errorf("follower apply: %w", err))
			continue
		}
		if rel == "" {
			continue
		}
		lr, lok := c.replicas[i][lead].Get(rel)
		fr, fok := cc.Get(rel)
		if lok != fok || (lok && fok && lr.Epoch() != fr.Epoch()) {
			c.markDownLocked(i, j, fmt.Errorf("replica diverged from primary on %q", rel))
		}
	}
	return info, nil
}

// Primary returns the shard's current serving replica index.
func (c *Catalog) Primary(shard int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary[shard]
}

// Failovers returns how many times leadership moved off a failed
// primary.
func (c *Catalog) Failovers() int64 { return c.failovers.Load() }

// Degraded reports the first shard with no healthy replica, if any:
// with replication a single dead replica is survivable (failover keeps
// the shard writable), so only a fully dead shard makes the store
// read-only and /readyz unready.
func (c *Catalog) Degraded() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.replicas {
		if err := c.shardDegradedLocked(i); err != nil {
			return err
		}
	}
	return nil
}

// DownReplicas lists every replica currently unable to serve — marked
// down by failover or divergence detection, or with a poisoned backend
// — for the serving layer to reopen on independent schedules.
func (c *Catalog) DownReplicas() []ReplicaRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ReplicaRef
	for i := range c.replicas {
		for j := range c.replicas[i] {
			if err := c.replicaErrLocked(i, j); err != nil {
				out = append(out, ReplicaRef{Shard: i, Replica: j, Err: err.Error()})
			}
		}
	}
	return out
}

// ReopenReplica restarts one replica on a fresh backend from open and
// resyncs it from the shard's authoritative in-memory state. While it
// runs, mutations pause (c.mu); runs in flight keep the relation and
// fragment objects they bound. The authority is the current primary's
// in-memory catalog — by log-then-apply it is exactly the applied
// mutation prefix, and it stays the authority even when the primary's
// own store is poisoned (its memory still holds the served state).
// Reopening the primary itself therefore resyncs it from its own
// memory: relations whose recovered epoch already matches are left
// alone, anything else (including a torn or half-applied tail) is
// force-restored. The reopened catalog replaces the old one only once
// it is fully resynced — until then, and when the reopen fails, the old
// one's memory keeps serving. If the shard's leadership sits on a down
// replica afterwards, the freshly reopened one is promoted.
func (c *Catalog) ReopenReplica(i, j int, open func() (storage.Backend, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= c.n || j < 0 || j >= c.r {
		return fmt.Errorf("shard: no replica %d/%d", i, j)
	}
	src := c.leaderLocked(i)
	old := c.replicas[i][j]
	// Release the old backend before the fresh one opens: two Durable
	// instances over one directory would fight over WAL files.
	old.Close()
	fail := func(err error) error {
		err = fmt.Errorf("shard %d replica %d: reopen: %w", i, j, err)
		c.markDownLocked(i, j, err)
		return err
	}
	nb, err := open()
	if err != nil {
		return fail(err)
	}
	cc, err := catalog.Open(nb)
	if err != nil {
		nb.Close()
		return fail(err)
	}
	if err := resyncFrom(cc, src, i == 0); err != nil {
		cc.Close()
		return fail(fmt.Errorf("resync: %w", err))
	}
	if j == c.primary[i] {
		c.movedLocked(old, cc)
	}
	c.replicas[i][j] = cc
	c.down[i][j] = nil
	c.version++
	if c.replicaErrLocked(i, c.primary[i]) != nil {
		c.promoteLocked(i)
	}
	return nil
}

// RollingReopen restarts every replica one at a time — shard by shard,
// replica by replica — while each one's siblings keep serving. With
// R > 1 the store never loses a healthy replica set, so /readyz stays
// ready throughout; reads are never interrupted in any case (a replica
// swap leaves bound relations and fragments valid).
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
