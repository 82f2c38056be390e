package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minesweeper/internal/storage"
)

// Kill-and-restart coverage for the per-shard WAL layout: a sharded
// catalog abandoned mid-life (no Close, one shard's log torn mid-record)
// must come back with every shard log at its exact pre-kill epoch, the
// routing table intact, and the same query answers.

func openSharded(t *testing.T, dir string, n int) *Catalog {
	t.Helper()
	c, err := OpenReplicated(dir, n, 1, storage.Options{})
	if err != nil {
		t.Fatalf("Open(%s, %d): %v", dir, n, err)
	}
	return c
}

// fragmentEpochs returns the epoch each shard's log replays its bucket
// of name to.
func fragmentEpochs(t *testing.T, c *Catalog, name string) []uint64 {
	t.Helper()
	if _, ok := c.Get(name); !ok {
		t.Fatalf("no relation %s", name)
	}
	return c.Epochs(name)
}

func TestDurableRecoveryPerShard(t *testing.T) {
	dir := t.TempDir()
	c := openSharded(t, dir, 4)

	var rT, sT [][]int
	for i := 0; i < 160; i++ {
		rT = append(rT, []int{i, (i * 3) % 50})
		sT = append(sT, []int{(i * 3) % 50, i % 20})
	}
	if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("S", []string{"b", "c"}, sT); err != nil {
		t.Fatal(err)
	}
	// A mutation alphabet that bumps different fragments by different
	// amounts, so "exact epochs" is a real assertion, not 1==1.
	if _, err := c.Insert("R", []int{500, 7}, []int{501, 14}, []int{502, 21}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Delete("R", []int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replace("S", sT[:100]); err != nil {
		t.Fatal(err)
	}
	p, ok := c.PartitionOf("R")
	if !ok {
		t.Fatal("R has no partition")
	}
	p.Mode = ModeRange
	p.Splits = []int{64, 128, 400}
	if err := c.ForcePartition("R", p); err != nil {
		t.Fatal(err)
	}

	epochsR := fragmentEpochs(t, c, "R")
	epochsS := fragmentEpochs(t, c, "S")
	partR, _ := c.PartitionOf("R")
	partS, _ := c.PartitionOf("S")
	const expr = "R(A,B), S(B,C)"
	ref := reference(t, c, expr, nil)
	// Kill: abandon c without Close. Every committed record is already
	// on disk; only the torn tail below is allowed to disappear.

	// Tear one shard's WAL mid-record, the classic crash-during-append.
	const torn = 2
	wals, err := filepath.Glob(filepath.Join(ReplicaDir(dir, torn, 0), "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files under shard-%d: %v", torn, err)
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("#!ms insert R 2 1 00000000\n7 "); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openSharded(t, dir, 4)
	defer c2.Close()

	if got := fragmentEpochs(t, c2, "R"); !equalU64(got, epochsR) {
		t.Fatalf("R fragment epochs after recovery = %v, want %v", got, epochsR)
	}
	if got := fragmentEpochs(t, c2, "S"); !equalU64(got, epochsS) {
		t.Fatalf("S fragment epochs after recovery = %v, want %v", got, epochsS)
	}
	if got, ok := c2.PartitionOf("R"); !ok || !reflect.DeepEqual(got, partR) {
		t.Fatalf("R partition after recovery = %+v, want %+v", got, partR)
	}
	if got, ok := c2.PartitionOf("S"); !ok || !reflect.DeepEqual(got, partS) {
		t.Fatalf("S partition after recovery = %+v, want %+v", got, partS)
	}

	stats := c2.ShardStats()
	for i, st := range stats {
		if i == torn && st.Storage.TruncatedBytes == 0 {
			t.Fatalf("shard %d recovered a torn WAL but reports 0 truncated bytes", torn)
		}
		if i != torn && st.Storage.TruncatedBytes != 0 {
			t.Fatalf("shard %d reports %d truncated bytes, want 0 (only shard %d was torn)",
				i, st.Storage.TruncatedBytes, torn)
		}
	}

	q, err := c2.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := c2.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ndjson(t, res.Vars, res.Tuples) != ndjson(t, ref.Vars, ref.Tuples) {
		t.Fatalf("post-recovery stream diverges from pre-kill stream (%d vs %d tuples)",
			len(res.Tuples), len(ref.Tuples))
	}

	// Mutations keep working after recovery — the truncated shard is
	// not read-only.
	if _, err := c2.Insert("R", []int{900, 1}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

func TestOpenRefusesShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	c := openSharded(t, dir, 4)
	if _, err := c.Create("R", []string{"a", "b"}, [][]int{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8} {
		_, err := OpenReplicated(dir, n, 1, storage.Options{})
		if err == nil || !strings.Contains(err.Error(), "laid out for 4 shards") {
			t.Fatalf("Open with %d shards over a 4-shard layout: err = %v, want layout refusal", n, err)
		}
	}
	c2 := openSharded(t, dir, 4)
	defer c2.Close()
	if got := c2.Len(); got != 1 {
		t.Fatalf("reopened catalog has %d relations, want 1", got)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
