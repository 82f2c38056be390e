package shard

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	minesweeper "minesweeper"
)

// Property test for the sharded stream: it must equal the unsharded
// GAO-lex stream byte-for-byte at every prefix, for arbitrary data and
// shard counts.

// TestMergeOrderProperty is the end-to-end property: for random
// two-atom joins, random shard counts and every engine, the sharded
// stream equals the unsharded stream at every randomly chosen prefix —
// so GAO-lex emission order survives sharding exactly.
func TestMergeOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const expr = "R(A,B), S(B,C)"
	for trial := 0; trial < 6; trial++ {
		dom := 10 + rng.Intn(40)
		var rT, sT [][]int
		seenR, seenS := map[[2]int]bool{}, map[[2]int]bool{}
		for i := 0; i < 150+rng.Intn(150); i++ {
			k := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if !seenR[k] {
				seenR[k] = true
				rT = append(rT, []int{k[0], k[1]})
			}
		}
		for i := 0; i < 150+rng.Intn(150); i++ {
			k := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if !seenS[k] {
				seenS[k] = true
				sT = append(sT, []int{k[0], k[1]})
			}
		}
		n := []int{2, 4, 8}[rng.Intn(3)]
		c := buildSharded(t, n, []relSpec{
			{"R", []string{"a", "b"}, rT},
			{"S", []string{"b", "c"}, sT},
		})
		for _, eng := range allEngines {
			opts := &minesweeper.Options{Engine: eng}
			ref := reference(t, c, expr, opts)
			q, err := c.Query(expr)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := c.Prepare(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pq.Execute()
			if err != nil {
				t.Fatalf("trial %d shards=%d engine=%v: %v", trial, n, eng, err)
			}
			if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
				t.Fatalf("trial %d shards=%d engine=%v: full stream diverges (%d vs %d tuples)",
					trial, n, eng, len(res.Tuples), len(ref.Tuples))
			}
			if len(ref.Tuples) == 0 {
				continue
			}
			limit := 1 + rng.Intn(len(ref.Tuples))
			var got [][]int
			if _, err := pq.StreamContextExplained(context.Background(), nil, func(tu []int) bool {
				got = append(got, append([]int(nil), tu...))
				return len(got) < limit
			}); err != nil {
				t.Fatalf("trial %d shards=%d engine=%v limit=%d: %v", trial, n, eng, limit, err)
			}
			if !reflect.DeepEqual(got, ref.Tuples[:limit]) {
				t.Fatalf("trial %d shards=%d engine=%v: limit-%d prefix diverges from unsharded order",
					trial, n, eng, limit)
			}
		}
	}
}
