package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	minesweeper "minesweeper"
	"minesweeper/internal/storage"
)

// Read-contract coverage: a sharded run streams the plan state it
// pinned. A replica whose storage dies mid-run changes nothing the run
// reads, so the stream finishes byte-identical to the unsharded
// reference; the death is picked up by DownReplicas and by the next
// mutation that reaches the shard.

// pinRels is a dense equi-join (~500 output tuples) whose relations the
// catalog range-partitions (E on b, F on c), so under the planner's
// GAO (C, B, A) every shard's range of F is a morsel of the run still
// going when the consumer poisons a replica.
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

// prepareSliced prepares pinExpr and checks the slicing rule: under the
// planner's GAO (C, B, A) F's range partition on c slices an IndexOnly
// engine's run, and a materializing engine's run is gathered.
func prepareSliced(t *testing.T, c *Catalog, opts *minesweeper.Options) *Prepared {
	t.Helper()
	q, err := c.Query(pinExpr)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := c.Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("F=c:range/%d", c.Shards())
	switch pq.Engine() {
	case minesweeper.EngineMinesweeper, minesweeper.EngineLeapfrog:
	default:
		want = "gathered"
	}
	if ex := pq.Explain(); len(ex.Partitions) != 1 || ex.Partitions[0] != want {
		t.Fatalf("engine %v: Explain.Partitions = %v, want [%s]", pq.Engine(), ex.Partitions, want)
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
				pq := prepareSliced(t, c, opts)
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

// TestExecuteResultLikeUnsharded: a sliced Execute fills the Result
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
	res, err := prepareSliced(t, c, nil).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != ref.Engine || strings.Join(res.GAO, ",") != strings.Join(ref.GAO, ",") {
		t.Fatalf("engine/GAO = %v/%v, unsharded %v/%v", res.Engine, res.GAO, ref.Engine, ref.GAO)
	}
	if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
		t.Fatal("sliced Execute diverges from unsharded")
	}
}
