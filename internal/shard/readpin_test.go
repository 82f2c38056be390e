package shard

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	minesweeper "minesweeper"
	"minesweeper/internal/storage"
)

// Read-contract coverage: a scattered run streams the fragments its
// plan pinned. A replica whose storage dies mid-run changes nothing the
// run reads, so the stream finishes byte-identical to the unsharded
// reference; the death is picked up by DownReplicas and by the next
// mutation that reaches the shard. A panicking substream ends the run
// with an error after a correct prefix; nothing is retried.

// pinRels is a dense equi-join (~500 output tuples, spread over every
// shard) so each shard's substream is still running when the consumer
// poisons a replica.
func pinRels() []relSpec {
	rT, sT := seedTuples(160)
	return []relSpec{
		{"E", []string{"a", "b"}, rT},
		{"F", []string{"b", "c"}, sT},
	}
}

const pinExpr = "E(A,B), F(B,C)"

// pinFixture opens an n x r durable catalog whose every replica backend
// poisons on its first explicit Sync — a kill switch the test flips per
// replica with zero data change — and loads pinRels.
func pinFixture(t *testing.T, n, r int) (*Catalog, [][]*storage.Faulty) {
	t.Helper()
	dir := t.TempDir()
	faulty := make([][]*storage.Faulty, n)
	for i := range faulty {
		faulty[i] = make([]*storage.Faulty, r)
	}
	c, err := OpenWith(dir, n, r, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(ReplicaDir(dir, i, j), storage.Options{})
		if err != nil {
			return nil, err
		}
		f, err := storage.NewFaulty(d, "sync@1=err")
		faulty[i][j] = f
		return f, err
	})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	for _, rs := range pinRels() {
		if _, err := c.Create(rs.name, rs.vars, rs.tuples); err != nil {
			t.Fatalf("Create %s: %v", rs.name, err)
		}
	}
	if down := c.DownReplicas(); len(down) != 0 {
		t.Fatalf("fixture starts degraded: %+v", down)
	}
	return c, faulty
}

func prepareScattered(t *testing.T, c *Catalog, opts *minesweeper.Options) *Prepared {
	t.Helper()
	q, err := c.Query(pinExpr)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := c.Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ex := pq.Explain(); len(ex.Partitions) != 1 || ex.Partitions[0] == "gathered" {
		t.Fatalf("plan did not scatter: %v", ex.Partitions)
	}
	return pq
}

// checkPoisonedRunFinishes runs every engine × shards {2, 4} × poison
// point k over r replicas per shard: the consumer poisons shard 0's
// serving replica from inside yield after k tuples, and the run must
// still deliver the exact unsharded stream. The dead replica is then
// reported for reopen, and the next mutation reaching shard 0 fails
// over (r > 1) or is refused for want of a healthy replica (r == 1).
func checkPoisonedRunFinishes(t *testing.T, r int) {
	for _, n := range []int{2, 4} {
		for _, k := range []int{0, 1, 5} {
			for _, eng := range allEngines {
				name := fmt.Sprintf("shards=%d k=%d engine=%v", n, k, eng)
				c, faulty := pinFixture(t, n, r)
				opts := &minesweeper.Options{Engine: eng}
				ref := reference(t, c, pinExpr, opts)
				pq := prepareScattered(t, c, opts)
				victim := c.Primary(0)
				var got [][]int
				_, err := pq.StreamContextExplained(context.Background(), nil, func(tu []int) bool {
					if len(got) == k {
						faulty[0][victim].Sync() // poisons the backend; the fragment is untouched
					}
					got = append(got, tu)
					return true
				})
				if err != nil {
					t.Fatalf("%s: run across poisoned replica: %v", name, err)
				}
				if ndjson(t, pq.OutputVars(), got) != ndjson(t, ref.Vars, ref.Tuples) {
					t.Fatalf("%s: stream diverges (%d vs %d tuples)", name, len(got), len(ref.Tuples))
				}
				down := c.DownReplicas()
				if len(down) != 1 || down[0].Shard != 0 || down[0].Replica != victim {
					t.Fatalf("%s: DownReplicas = %+v, want shard 0 replica %d", name, down, victim)
				}
				// A create writes every shard, so it reaches shard 0.
				_, err = c.Create("G", []string{"x"}, [][]int{{1}, {2}, {3}})
				if r == 1 {
					if err == nil || !strings.Contains(err.Error(), "no healthy replica") {
						t.Fatalf("%s: mutation on the only dead replica: err = %v", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: mutation after poison: %v", name, err)
				}
				if c.Failovers() < 1 || c.Primary(0) == victim {
					t.Fatalf("%s: no failover (failovers=%d, primary=%d, victim=%d)",
						name, c.Failovers(), c.Primary(0), victim)
				}
			}
		}
	}
}

func TestPoisonedReplicaRunFinishes(t *testing.T) { checkPoisonedRunFinishes(t, 2) }

// TestPoisonedOnlyReplicaRunFinishes: with one replica per shard there
// is no sibling at all, and the run still finishes on what it pinned.
func TestPoisonedOnlyReplicaRunFinishes(t *testing.T) { checkPoisonedRunFinishes(t, 1) }

// TestSubstreamPanicIsolation: a panic inside one substream goroutine
// is recovered at the substream boundary and counted; the run ends with
// an error, the result keeps the proper prefix merged so far, and no
// replica is marked down (its storage is fine).
func TestSubstreamPanicIsolation(t *testing.T) {
	c, _ := pinFixture(t, 4, 2)
	ref := reference(t, c, pinExpr, nil)
	pq := prepareScattered(t, c, nil)
	var seen atomic.Int64
	pq.emitHook = func(s int) {
		if s == 1 && seen.Add(1) == 4 {
			panic("injected substream panic")
		}
	}
	res, err := pq.Execute()
	if err == nil || !strings.Contains(err.Error(), "injected substream panic") {
		t.Fatalf("execute across panic: err = %v, want the panic", err)
	}
	if res == nil || res.Engine != pq.Engine() {
		t.Fatalf("partial result = %+v, want the prefix with engine %v", res, pq.Engine())
	}
	if len(res.Tuples) >= len(ref.Tuples) ||
		ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples[:len(res.Tuples)]) {
		t.Fatalf("%d tuples are not a proper prefix of the %d-tuple reference", len(res.Tuples), len(ref.Tuples))
	}
	var panics int64
	for _, st := range c.ShardStats() {
		panics += st.Panics
	}
	if panics != 1 {
		t.Fatalf("panics = %d, want 1", panics)
	}
	if got := c.DownReplicas(); len(got) != 0 {
		t.Fatalf("panic marked replicas down: %+v (storage was healthy)", got)
	}
}

// TestExecuteResultLikeUnsharded: a scattered Execute fills the Result
// the way the unsharded prepared query does — the resolved engine and
// the emitted GAO included.
func TestExecuteResultLikeUnsharded(t *testing.T) {
	c, _ := pinFixture(t, 2, 1)
	q, err := c.Query(pinExpr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Execute()
	if err != nil {
		t.Fatal(err)
	}
	res, err := prepareScattered(t, c, nil).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != ref.Engine || strings.Join(res.GAO, ",") != strings.Join(ref.GAO, ",") {
		t.Fatalf("engine/GAO = %v/%v, unsharded %v/%v", res.Engine, res.GAO, ref.Engine, ref.GAO)
	}
	if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
		t.Fatal("scattered Execute diverges from unsharded")
	}
}
