package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A partition is validated wherever it enters the catalog: routing
// indexes tuples by its column and buckets by its split count, and its
// splits are the morsel boundaries of sliced runs.

// TestForcePartitionValidates: ForcePartition refuses a partition that
// cannot route over the shard set — too many splits, splits out of
// order, a column out of range, an unknown mode — and leaves the
// relation's partition as it was.
func TestForcePartitionValidates(t *testing.T) {
	rT, _ := seedTuples(40)
	c := buildSharded(t, 2, []relSpec{{"R", []string{"a", "b"}, rT}})
	before, _ := c.PartitionOf("R")
	for _, tc := range []struct {
		p    Partition
		want string
	}{
		{Partition{Column: 0, Mode: ModeRange, Splits: []int{10, 20}}, "2 splits for 2 shards"},
		{Partition{Column: 0, Mode: ModeRange, Splits: []int{10, 20, 30, 40}}, "4 splits for 2 shards"},
		{Partition{Column: 0, Mode: ModeHash, Splits: []int{10, 20}}, "2 splits for 2 shards"},
		{Partition{Column: 2, Mode: ModeHash}, "column 2 out of range"},
		{Partition{Column: -1, Mode: ModeHash}, "column -1 out of range"},
		{Partition{Column: 0, Mode: "round-robin"}, "unknown partition mode"},
	} {
		if err := c.ForcePartition("R", tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ForcePartition(%+v): err = %v, want %q", tc.p, err, tc.want)
		}
		if got, _ := c.PartitionOf("R"); got.String() != before.String() || len(got.Splits) != len(before.Splits) {
			t.Fatalf("refused ForcePartition(%+v) changed the partition to %+v", tc.p, got)
		}
	}
	if _, err := c.Insert("R", []int{7, 7}); err != nil {
		t.Fatalf("insert after refused partitions: %v", err)
	}
}

// TestRecoveryRepartitionsBadManifestEntry: a shards.json entry that
// fails the check — a negative column, more splits than the shard set
// has boundaries, an unknown mode — is repartitioned on open like a
// missing one, so the next mutation routes instead of panicking and the
// relation keeps every row.
func TestRecoveryRepartitionsBadManifestEntry(t *testing.T) {
	for _, bad := range []Partition{
		{Column: -1, Attr: "a", Mode: ModeHash},
		{Column: 0, Attr: "a", Mode: ModeRange, Splits: []int{5, 10, 15}},
		{Column: 0, Attr: "a", Mode: "round-robin"},
	} {
		dir := t.TempDir()
		c := openSharded(t, dir, 2)
		rT, _ := seedTuples(40)
		if _, err := c.Create("R", []string{"a", "b"}, rT); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, manifestName)
		m, err := readManifest(path)
		if err != nil || m == nil {
			t.Fatalf("reading the manifest: %v", err)
		}
		m.Relations["R"] = bad
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		c2 := openSharded(t, dir, 2)
		p, ok := c2.PartitionOf("R")
		if !ok || p.Check(2, 2) != nil {
			t.Fatalf("manifest entry %+v: recovered partition %+v (ok=%v) fails the check", bad, p, ok)
		}
		if _, err := c2.Insert("R", []int{500, 1}); err != nil {
			t.Fatalf("manifest entry %+v: insert after recovery: %v", bad, err)
		}
		rel, _ := c2.Get("R")
		if rel.Len() != len(rT)+1 {
			t.Fatalf("manifest entry %+v: R holds %d rows after recovery and one insert, want %d", bad, rel.Len(), len(rT)+1)
		}
		c2.Close()
	}
}
