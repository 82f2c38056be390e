package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/relio"
	"minesweeper/internal/storage"
)

// One shard is a parameter of the catalog, not another type: every
// relation is one object in memory at any shard count, an upload is
// parsed once, a leadership move changes which replica is primary but
// not which relation objects are served, and a directory written by an
// unsharded store opens as shard 0 / replica 0.

// TestOneFragmentIsServedInPlace: a relation is one object in memory
// whatever the shard count. Create returns it and Get keeps returning
// it after every kind of mutation, a forced repartition and a replica
// reopen; each mutation is applied to it once, and its epoch is the sum
// of its shard logs' epochs. Recovery rebuilds exactly what was served.
func TestOneFragmentIsServedInPlace(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("r%d-durable=%v", replicas, durable), func(t *testing.T) {
				for _, shards := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
						checkServedInPlace(t, shards, replicas, durable)
					})
				}
			})
		}
	}
}

func checkServedInPlace(t *testing.T, shards, replicas int, durable bool) {
	dir := t.TempDir()
	open := func() *Catalog {
		if !durable {
			return NewReplicated(shards, replicas)
		}
		c, err := OpenReplicated(dir, shards, replicas, storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// epochsAdd checks that every relation's epoch is the sum of its
	// shard logs' epochs.
	epochsAdd := func(c *Catalog, when string) {
		t.Helper()
		for _, info := range c.Relations() {
			var sum uint64
			for _, e := range c.Epochs(info.Name) {
				sum += e
			}
			if info.Epoch != sum {
				t.Fatalf("after %s: %s is at epoch %d, its shard logs at %v", when, info.Name, info.Epoch, c.Epochs(info.Name))
			}
		}
	}
	served := map[string]*minesweeper.Relation{}
	inPlace := func(c *Catalog, when string) {
		t.Helper()
		for name, rel := range served {
			if got, ok := c.Get(name); !ok || got != rel {
				t.Fatalf("after %s: Get(%q) = %p (%v), was %p", when, name, got, ok, rel)
			}
		}
		epochsAdd(c, when)
	}
	c := open()
	if _, err := c.Load(strings.NewReader("R: A B\n1 2\n2 3\n4 1\n"), "test"); err != nil {
		t.Fatal(err)
	}
	served["R"], _ = c.Get("R")
	inPlace(c, "Load")
	rel, err := c.Create("S", []string{"B", "C"}, [][]int{{2, 5}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	served["S"] = rel
	inPlace(c, "Create")

	rel = served["R"]
	before := rel.Epoch()
	info, err := c.Insert("R", []int{9, 2}, []int{8, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Epoch() != info.Epoch || info.Epoch <= before || (shards == 1 && info.Epoch != before+1) || info.Tuples != 5 {
		t.Fatalf("Insert: epoch %d -> %d, info %+v; want a bump and 5 tuples", before, rel.Epoch(), info)
	}
	inPlace(c, "Insert")
	if n, info, err := c.Delete("R", []int{9, 2}, []int{7, 7}); err != nil || n != 1 || info.Tuples != 4 {
		t.Fatalf("Delete = %d, %+v, %v; want 1 row gone, 4 left", n, info, err)
	}
	inPlace(c, "Delete")
	if info, err := c.Replace("S", [][]int{{2, 6}}); err != nil || info.Tuples != 1 {
		t.Fatalf("Replace = %+v, %v", info, err)
	}
	inPlace(c, "Replace")
	if err := c.ForcePartition("R", Partition{Column: 1, Attr: "B", Mode: ModeHash}); err != nil {
		t.Fatal(err)
	}
	inPlace(c, "ForcePartition")
	if err := c.ReopenReplica(0, 0, func() (storage.Backend, error) {
		if !durable {
			return storage.NewMem(), nil
		}
		return storage.OpenDurable(ReplicaDir(dir, 0, 0), storage.Options{})
	}); err != nil {
		t.Fatal(err)
	}
	inPlace(c, "ReopenReplica")
	if parts := mustPrepare(t, c, "R(A,B), S(B,C)").Explain().Partitions; shards == 1 && len(parts) != 0 {
		t.Fatalf("Explain.Partitions = %v at one shard, want none", parts)
	}

	if !durable {
		return
	}
	want := c.Relations()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := open()
	defer c2.Close()
	if got := c2.Relations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered relations %+v, want %+v", got, want)
	}
	epochsAdd(c2, "recovery")
}

func mustPrepare(t *testing.T, c *Catalog, expr string) *Prepared {
	t.Helper()
	q, err := c.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadParsesOnce: an upload into a one-shard catalog costs what it
// costs the replica underneath — parsed once, routed without copying,
// never re-serialised.
func TestLoadParsesOnce(t *testing.T) {
	const n = 10000
	tuples := make([][]int, n)
	for i := range tuples {
		tuples[i] = []int{i, (i * 7) % 1000}
	}
	var text bytes.Buffer
	if err := relio.WriteRelation(&text, &relio.Relation{Name: "R", Vars: []string{"A", "B"}, Tuples: tuples}); err != nil {
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(5, func() {
		if info, err := catalog.New().Load(bytes.NewReader(text.Bytes()), "test"); err != nil || info.Tuples != n {
			t.Fatalf("catalog load = %+v, %v", info, err)
		}
	})
	sharded := testing.AllocsPerRun(5, func() {
		if info, err := New(1).Load(bytes.NewReader(text.Bytes()), "test"); err != nil || info.Tuples != n {
			t.Fatalf("shard load = %+v, %v", info, err)
		}
	})
	if sharded > plain+64 {
		t.Fatalf("shard.New(1).Load allocates %.0f objects, catalog.New().Load %.0f: budget is +64", sharded, plain)
	}
}

// streamOf runs the prepared query and renders it as msserve would.
func streamOf(t *testing.T, p *Prepared) string {
	t.Helper()
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return ndjson(t, res.Vars, res.Tuples)
}

// TestLeadershipMoveKeepsRelations: with one shard the relation is the
// one in-memory object, whichever replica is primary.
// A failover and a reopen of the old primary leave Get returning the
// very same *Relation, and a query prepared — or merely parsed — before
// the moves keeps streaming exactly what an unsharded catalog holding
// the same rows does; a query holding a relation that was dropped does
// not follow the name to its re-creation.
func TestLeadershipMoveKeepsRelations(t *testing.T) {
	const expr = "R(A,B), S(B,C)"
	dir := t.TempDir()
	var faulty [2]*storage.Faulty
	c, err := OpenWith(dir, 1, 2, func(_, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(ReplicaDir(dir, 0, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		// A kill switch: the first explicit Sync poisons the backend, with
		// no change to the data.
		faulty[j], err = storage.NewFaulty(d, "sync@1=err")
		return faulty[j], err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := catalog.New() // the independent unsharded model
	rT, sT := seedTuples(60)
	for _, cat := range []interface {
		Create(string, []string, [][]int) (*minesweeper.Relation, error)
	}{c, ref} {
		if _, err := cat.Create("R", []string{"a", "b"}, rT); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Create("S", []string{"b", "c"}, sT); err != nil {
			t.Fatal(err)
		}
	}
	// want is the reference stream of a query over ref prepared when
	// the run's own was: a prepared query keeps its plan across
	// mutations on near-ties, so its order follows its history.
	want := func(refP *minesweeper.PreparedQuery) string {
		t.Helper()
		res, err := refP.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return ndjson(t, res.Vars, res.Tuples)
	}
	refPrepare := func() *minesweeper.PreparedQuery {
		t.Helper()
		q, err := ref.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := q.Prepare(nil)
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}
	// insert adds one joining row to both catalogs.
	insert := func(a int) {
		t.Helper()
		if _, err := c.Insert("R", []int{a, 3}); err != nil {
			t.Fatalf("insert %d: %v", a, err)
		}
		if _, err := ref.Insert("R", []int{a, 3}); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := c.Query(expr) // parsed now, prepared only after the moves
	if err != nil {
		t.Fatal(err)
	}
	p, refP := mustPrepare(t, c, expr), refPrepare()
	whole, _ := c.Get("R")
	check := func(when string, leader int) {
		t.Helper()
		if got := c.Primary(0); got != leader {
			t.Fatalf("%s: shard 0 led by replica %d, want %d", when, got, leader)
		}
		if got, _ := c.Get("R"); got != whole {
			t.Fatalf("%s: Get(R) = %p, was %p: the relation changed identity", when, got, whole)
		}
		if got, w := streamOf(t, p), want(refP); got != w {
			t.Fatalf("%s: prepared stream diverges from the unsharded reference:\n%s\nwant:\n%s", when, got, w)
		}
		late, err := c.Prepare(stale, nil)
		if err != nil {
			t.Fatalf("%s: preparing a query parsed before the move: %v", when, err)
		}
		if got, w := streamOf(t, late), want(refPrepare()); got != w {
			t.Fatalf("%s: query parsed before the move diverges from the reference", when)
		}
		if rels := p.Relations(); len(rels) != 2 || rels[0] != whole {
			t.Fatalf("%s: plan is bound to %v, want the current R first", when, rels)
		}
	}
	check("before any move", 0)

	// Failover: replica 0's store dies, the insert lands on replica 1.
	faulty[0].Sync()
	insert(1000)
	if c.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", c.Failovers())
	}
	check("after failover", 1)
	if !strings.Contains(streamOf(t, p), "[1000,3,") {
		t.Fatal("post-failover tuple missing from the stream")
	}

	// The old primary comes back as a follower; nothing in memory moves.
	if err := c.ReopenReplica(0, 0, func() (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, 0, 0), storage.Options{})
	}); err != nil {
		t.Fatal(err)
	}
	if down := c.DownReplicas(); len(down) != 0 {
		t.Fatalf("still down after reopen: %+v", down)
	}
	insert(1001)
	check("after reopening the old primary", 1)

	// Second move, back onto the reopened replica.
	faulty[1].Sync()
	insert(1002)
	check("after failing back", 0)

	// A dropped relation is not followed to its re-creation.
	if err := c.Drop("S"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, [][]int{{3, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := c.Get("S"); p.Relations()[1] == cur {
		t.Fatal("plan followed S across a drop and re-create")
	}
}

// TestLeadershipMovesUnderLoad: runs of one prepared query race inserts,
// failovers and reopens. Every run must stream the snapshot it pinned —
// a complete count no smaller than the previous one, rows only ever
// being added — and the run after the last move sees every row.
func TestLeadershipMovesUnderLoad(t *testing.T) {
	dir := t.TempDir()
	reopen := func(j int) (*storage.Faulty, error) {
		d, err := storage.OpenDurable(ReplicaDir(dir, 0, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		return storage.NewFaulty(d, "sync@1=err")
	}
	var faulty [2]*storage.Faulty
	c, err := OpenWith(dir, 1, 2, func(_, j int) (b storage.Backend, err error) {
		faulty[j], err = reopen(j)
		return faulty[j], err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rT, sT := seedTuples(60)
	if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(t, c, "R(A,B), S(B,C) select count(*)")
	count := func() (int, error) {
		res, err := p.Execute()
		if err != nil || len(res.Tuples) != 1 {
			return 0, fmt.Errorf("run = %v, %v", res, err)
		}
		return res.Tuples[0][0], nil
	}
	base, err := count()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			last := base
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				n, err := count()
				if err == nil && n < last {
					err = fmt.Errorf("a run counted %d rows after one counted %d", n, last)
				}
				if err != nil {
					errc <- err
					return
				}
				last = n
			}
		}()
	}
	const rounds = 6
	for i := 0; i < rounds; i++ {
		lead := c.Primary(0)
		faulty[lead].Sync() // kill the leader's store; the insert fails over
		if _, err := c.Insert("R", []int{1000 + i, 3}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := c.ReopenReplica(0, lead, func() (b storage.Backend, err error) {
			faulty[lead], err = reopen(lead)
			return faulty[lead], err
		}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	per, err := c.Query("S(3,C) select count(*)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := minesweeper.Execute(per, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := count(); got != base+rounds*res.Tuples[0][0] || int(c.Failovers()) != rounds {
		t.Fatalf("after %d moves: %d rows (want %d), %d failovers", rounds, got, base+rounds*res.Tuples[0][0], c.Failovers())
	}
}

// TestReopenedLeaderKeepsServing: a 1 x 1 store that poisoned itself is
// reopened in place — its one replica is recovered and brought in sync
// under the unchanged relations — and a query prepared before serves
// the mutations made after.
func TestReopenedLeaderKeepsServing(t *testing.T) {
	dir := t.TempDir()
	c := openFaultyReplica(t, dir, 1, 1, 0, 0, "append@3=enospc")
	defer c.Close()
	if _, err := c.Create("R", []string{"a", "b"}, [][]int{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, [][]int{{2, 5}}); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(t, c, "R(A,B), S(B,C)")
	if _, err := c.Insert("R", []int{7, 2}); !errors.Is(err, catalog.ErrReadOnly) || !strings.HasPrefix(err.Error(), "shard 0: no healthy replica:") {
		t.Fatalf("insert on a poisoned 1 x 1 store = %v, want shard 0's read-only error", err)
	}
	if c.Degraded() == nil || streamOf(t, p) != "[\"A\",\"B\",\"C\"]\n[1,2,5]\n" {
		t.Fatal("poisoned store must be degraded and still serve reads")
	}
	if err := c.ReopenReplica(0, 0, func() (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, 0, 0), storage.Options{})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("R", []int{7, 2}); err != nil || c.Degraded() != nil {
		t.Fatalf("after reopen: insert = %v, degraded = %v", err, c.Degraded())
	}
	if got := streamOf(t, p); got != "[\"A\",\"B\",\"C\"]\n[1,2,5]\n[7,2,5]\n" {
		t.Fatalf("stream after reopen = %q", got)
	}
}

// TestUnshardedLayoutMigrates: a directory written by an unsharded store
// (WAL and snapshots at its root, no manifest) is a one-shard layout.
// It opens at any replica count with every relation, epoch, tuple and
// query definition, and is refused — not served empty — at any other
// shard count.
func TestUnshardedLayoutMigrates(t *testing.T) {
	src := t.TempDir()
	d, err := storage.OpenDurable(src, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := catalog.Open(d)
	if err != nil {
		t.Fatal(err)
	}
	rT, sT := seedTuples(40)
	if _, err := old.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Create("S", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Insert("R", []int{500, 7}); err != nil {
		t.Fatal(err)
	}
	if err := old.PutQueryDef(storage.QueryDef{Name: "rs", Query: "R(A,B), S(B,C)"}); err != nil {
		t.Fatal(err)
	}
	wantRels, wantDefs := old.Relations(), old.QueryDefs()
	wantR, _ := old.Get("R")
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	// copyOf gives each case its own copy: opening migrates in place.
	copyOf := func() string {
		dst := t.TempDir()
		files, err := filepath.Glob(filepath.Join(src, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("unsharded store left no files: %v", err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	same := func(c *Catalog, when string) {
		t.Helper()
		if got := c.Relations(); !reflect.DeepEqual(got, wantRels) {
			t.Fatalf("%s: relations = %+v, want %+v", when, got, wantRels)
		}
		if got := c.QueryDefs(); !reflect.DeepEqual(got, wantDefs) {
			t.Fatalf("%s: query definitions = %+v, want %+v", when, got, wantDefs)
		}
		if got, _ := c.Get("R"); !reflect.DeepEqual(got.Tuples(), wantR.Tuples()) {
			t.Fatalf("%s: R's tuples differ", when)
		}
	}
	for _, replicas := range []int{1, 2} {
		dir := copyOf()
		c, err := OpenReplicated(dir, 1, replicas, storage.Options{})
		if err != nil {
			t.Fatalf("opening an unsharded layout with %d replicas: %v", replicas, err)
		}
		same(c, fmt.Sprintf("1 x %d", replicas))
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if logs, _ := legacyLogs(dir); len(logs) != 0 {
			t.Fatalf("logs left at the root after migration: %v", logs)
		}
		// The migrated directory is an ordinary one: it reopens at the
		// other replica count too, and still refuses a second shard.
		c, err = OpenReplicated(dir, 1, 3-replicas, storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		same(c, fmt.Sprintf("1 x %d reopened 1 x %d", replicas, 3-replicas))
		c.Close()
		if _, err := OpenReplicated(dir, 2, 1, storage.Options{}); err == nil || !strings.Contains(err.Error(), "laid out for 1 shards") {
			t.Fatalf("opening the migrated layout with 2 shards = %v, want a layout refusal", err)
		}
	}
	dir := copyOf()
	if _, err := OpenReplicated(dir, 2, 1, storage.Options{}); err == nil || !strings.Contains(err.Error(), "laid out for 1 shards") {
		t.Fatalf("opening an unsharded layout with 2 shards = %v, want a layout refusal", err)
	}
	if logs, _ := legacyLogs(dir); len(logs) == 0 {
		t.Fatal("a refused open moved the logs")
	}
}
