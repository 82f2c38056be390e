package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"minesweeper/internal/catalog"
	"minesweeper/internal/storage"
)

// Replication coverage: a poisoned primary fails over to a healthy
// follower without losing a mutation, a reopened replica is brought
// back in sync from the shard's one in-memory copy, a rolling reopen
// never degrades the catalog, a pre-replication shard layout migrates
// in place, and a replica costs a log, not a copy.

// fragmentState is one shard log's bucket of a relation as the
// durable-replica check compares it: its epoch and its (sorted) tuples.
type fragmentState struct {
	epoch  uint64
	tuples [][]int
}

func fragmentStates(cc *catalog.Catalog) map[string]fragmentState {
	out := map[string]fragmentState{}
	for _, name := range cc.Names() {
		rel, _ := cc.Get(name)
		ts := rel.Tuples()
		if len(ts) == 0 {
			ts = nil
		}
		out[name] = fragmentState{rel.Epoch(), ts}
	}
	return out
}

// checkReplicasDurable closes c and opens every replica directory
// alone, checking that each holds exactly its shard's bucket of what the
// catalog serves: the same relations at the shard log's epochs with the
// bucket's tuples. It checks what is durable, not a copy in memory.
func checkReplicasDurable(t *testing.T, c *Catalog, dir string) {
	t.Helper()
	served := make([]map[string]fragmentState, c.Shards())
	for i := range served {
		served[i] = map[string]fragmentState{}
	}
	for _, name := range c.Names() {
		rel, _ := c.Get(name)
		p, _ := c.PartitionOf(name)
		buckets, epochs := p.Split(rel.Tuples(), c.Shards()), c.Epochs(name)
		for i, ts := range buckets {
			if len(ts) == 0 {
				ts = nil
			}
			served[i][name] = fragmentState{epochs[i], ts}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range served {
		for j := 0; j < c.ReplicaCount(); j++ {
			d, err := storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cc, err := catalog.Open(d)
			if err != nil {
				t.Fatal(err)
			}
			got := fragmentStates(cc)
			cc.Close()
			if !reflect.DeepEqual(got, served[i]) {
				t.Fatalf("shard %d replica %d logs %v, the shard serves %v", i, j, got, served[i])
			}
		}
	}
}

// openFaultyReplica opens a replicated durable catalog where exactly
// one replica's backend is wrapped in the fault-injection layer.
func openFaultyReplica(t *testing.T, dir string, shards, replicas, fShard, fRep int, script string) *Catalog {
	t.Helper()
	c, err := OpenWith(dir, shards, replicas, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		if i == fShard && j == fRep {
			return storage.NewFaulty(d, script)
		}
		return d, nil
	})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	return c
}

func seedTuples(n int) (rT, sT [][]int) {
	for i := 0; i < n; i++ {
		rT = append(rT, []int{i, (i * 3) % 50})
		sT = append(sT, []int{(i * 3) % 50, i % 20})
	}
	return
}

// TestPrimaryFailover: when the primary's WAL poisons mid-mutation the
// record is durable on the healthy follower, which becomes primary, and
// the mutation succeeds on the first try — the caller never sees the fault, the catalog never turns
// read-only, and the dead replica is reported for background reopen.
func TestPrimaryFailover(t *testing.T) {
	dir := t.TempDir()
	c := openFaultyReplica(t, dir, 2, 2, 0, 0, "append@2=enospc")
	defer c.Close()

	rT, sT := seedTuples(120)
	if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}
	// Enough inserts to guarantee shard 0 takes an append; its primary
	// (replica 0) hits the scripted enospc and a follower takes over.
	var ins [][]int
	for i := 0; i < 16; i++ {
		ins = append(ins, []int{1000 + i, i})
	}
	if _, err := c.Insert("R", ins...); err != nil {
		t.Fatalf("insert across the fault: %v", err)
	}
	if got := c.Failovers(); got < 1 {
		t.Fatalf("Failovers() = %d, want >= 1", got)
	}
	if got := c.Primary(0); got != 1 {
		t.Fatalf("shard 0 primary = %d, want 1 after failover", got)
	}
	if err := c.Degraded(); err != nil {
		t.Fatalf("Degraded() = %v, want nil (one healthy replica remains)", err)
	}
	down := c.DownReplicas()
	if len(down) != 1 || down[0].Shard != 0 || down[0].Replica != 0 {
		t.Fatalf("DownReplicas() = %+v, want exactly shard 0 replica 0", down)
	}
	stats := c.ShardStats()
	if stats[0].Replicas[0].Down == "" || stats[0].Replicas[1].Down != "" {
		t.Fatalf("replica health after failover = %+v", stats[0].Replicas)
	}
	if !stats[0].Replicas[1].Primary {
		t.Fatalf("replica 1 not marked primary: %+v", stats[0].Replicas)
	}

	// Mutations keep flowing on the new primary.
	if _, err := c.Insert("R", []int{2000, 1}, []int{2001, 2}, []int{2002, 3}); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
	// Reads never noticed: the sharded stream still matches unsharded.
	const expr = "R(A,B), S(B,C)"
	ref := reference(t, c, expr, nil)
	q, err := c.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := c.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
		t.Fatal("post-failover stream diverges from unsharded reference")
	}

	// ReopenReplica brings the dead replica back in sync: its log then
	// holds every bucket at the served epoch, as the surviving one's
	// does.
	if err := c.ReopenReplica(0, 0, func() (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, 0, 0), storage.Options{})
	}); err != nil {
		t.Fatalf("ReopenReplica: %v", err)
	}
	if got := c.DownReplicas(); len(got) != 0 {
		t.Fatalf("DownReplicas() after reopen = %+v, want none", got)
	}
	if got := c.Primary(0); got != 1 {
		t.Fatalf("shard 0 primary = %d after the reopen, want 1 (a reopened replica rejoins as a follower)", got)
	}
	checkReplicasDurable(t, c, dir)
}

// TestFailoverExhaustion: with every replica of a shard poisoned the
// catalog finally degrades — failover is not an infinite retry loop.
func TestFailoverExhaustion(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenWith(dir, 1, 2, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		return storage.NewFaulty(d, "append@2=enospc")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Create("R", []string{"a", "b"}, [][]int{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("R", []int{3, 4}); err == nil {
		t.Fatal("insert succeeded with every replica poisoned")
	} else if !strings.Contains(err.Error(), "no healthy replica") {
		t.Fatalf("exhaustion error = %v, want 'no healthy replica'", err)
	}
	if c.Degraded() == nil {
		t.Fatal("Degraded() = nil with every replica down")
	}
	// Reads still serve from the in-memory relations.
	if _, ok := c.Get("R"); !ok {
		t.Fatal("gathered view lost R after exhaustion")
	}
}

// TestRollingReopen: reopening every replica of every shard one at a
// time (the rolling-restart primitive) keeps the catalog continuously
// ready and leaves every replica's log at the served epochs.
func TestRollingReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenReplicated(dir, 3, 2, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rT, sT := seedTuples(150)
	if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("R", []int{900, 1}, []int{901, 2}); err != nil {
		t.Fatal(err)
	}
	epochs := fragmentEpochs(t, c, "R")
	// First roll step by step, checking readiness between every swap —
	// the zero-downtime claim is that no intermediate state degrades.
	for i := 0; i < c.Shards(); i++ {
		for j := 0; j < c.ReplicaCount(); j++ {
			if err := c.ReopenReplica(i, j, func() (storage.Backend, error) {
				return storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
			}); err != nil {
				t.Fatalf("ReopenReplica(%d, %d): %v", i, j, err)
			}
			if err := c.Degraded(); err != nil {
				t.Fatalf("catalog degraded mid-roll at shard %d replica %d: %v", i, j, err)
			}
		}
	}
	// Then the one-call form over the already-rolled set.
	if err := c.RollingReopen(func(i, j int) (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
	}); err != nil {
		t.Fatalf("RollingReopen: %v", err)
	}
	if err := c.Degraded(); err != nil {
		t.Fatalf("Degraded() after roll = %v", err)
	}
	if got := fragmentEpochs(t, c, "R"); !equalU64(got, epochs) {
		t.Fatalf("R epochs after roll = %v, want %v", got, epochs)
	}
	if _, err := c.Insert("R", []int{950, 5}); err != nil {
		t.Fatalf("insert after roll: %v", err)
	}
	checkReplicasDurable(t, c, dir)
}

// TestLegacyLayoutMigration: a pre-replication data directory (WAL and
// snapshots directly under shard-<i>/) opens as replica 0 of each
// shard, and a widened replica count backfills the new copies from it.
func TestLegacyLayoutMigration(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenReplicated(dir, 2, 1, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rT, _ := seedTuples(80)
	if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("R", []int{500, 7}); err != nil {
		t.Fatal(err)
	}
	epochs := fragmentEpochs(t, c, "R")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Flatten to the legacy layout: move replica-0's files up into the
	// shard directory and remove the replica directory.
	for i := 0; i < 2; i++ {
		rd := ReplicaDir(dir, i, 0)
		files, err := filepath.Glob(filepath.Join(rd, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("replica dir %s is empty: %v", rd, err)
		}
		for _, f := range files {
			if err := os.Rename(f, filepath.Join(ShardDir(dir, i), filepath.Base(f))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Remove(rd); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := OpenReplicated(dir, 2, 2, storage.Options{})
	if err != nil {
		t.Fatalf("OpenReplicated over legacy layout: %v", err)
	}
	defer c2.Close()
	if got := fragmentEpochs(t, c2, "R"); !equalU64(got, epochs) {
		t.Fatalf("R epochs after migration = %v, want %v", got, epochs)
	}
	// The widened replica set is live: the new replica was backfilled
	// from the legacy log, and mutations reach both logs.
	if _, err := c2.Insert("R", []int{600, 8}, []int{601, 9}); err != nil {
		t.Fatalf("insert after migration: %v", err)
	}
	checkReplicasDurable(t, c2, dir)
}

// TestReplicatedInsertAllocs: a replica is a log, not a copy. A 256-row
// insert over memory replicas costs at R = 2 what it costs at R = 1 —
// in objects (within +64) and in bytes (within 10%: the merged copy of
// the relation is made once per shard, not once per replica) — at one
// shard and at two.
func TestReplicatedInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budgets measured without -race")
	}
	const runs = 20
	rT, _ := seedTuples(20000)
	batches := make([][][]int, 2*runs+2)
	for k := range batches {
		batches[k] = make([][]int, 256)
		for i := range batches[k] {
			batches[k][i] = []int{100000 + k*256 + i, i % 50}
		}
	}
	cost := func(shards, replicas int) (objects, bytes float64) {
		c := NewReplicated(shards, replicas)
		if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
			t.Fatal(err)
		}
		k := 0
		insert := func() {
			if _, err := c.Insert("R", batches[k]...); err != nil {
				t.Fatal(err)
			}
			k++
		}
		objects = testing.AllocsPerRun(runs, insert)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			insert()
		}
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, shards := range []int{1, 2} {
		o1, b1 := cost(shards, 1)
		o2, b2 := cost(shards, 2)
		if o2 > o1+64 || b2 > 1.1*b1 {
			t.Errorf("%d shards: a 256-row insert allocates %.0f objects / %.0f B at 2 replicas, %.0f / %.0f B at 1",
				shards, o2, b2, o1, b1)
		}
	}
}
