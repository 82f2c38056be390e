package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"minesweeper/internal/catalog"
	"minesweeper/internal/storage"
)

// manifestName is the routing manifest at the data-dir root. The
// manifest is authoritative for how stored tuples were physically
// routed: re-deriving a partition from statistics after recovery could
// disagree with the placement the shard logs actually hold, which would
// silently break the colocation invariant recovery and sliced runs need.
const manifestName = "shards.json"

// manifest is the durable routing state: the shard count the directory
// is laid out for and the partition of every relation. The replica
// count is recorded for introspection but not enforced — a new replica
// directory is brought in sync when it opens, not migrated, so a
// directory opens at any replica count.
type manifest struct {
	Shards    int                  `json:"shards"`
	Replicas  int                  `json:"replicas,omitempty"`
	Relations map[string]Partition `json:"relations"`
}

// ShardDir returns the directory of one shard under the data dir.
func ShardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
}

// ReplicaDir returns the WAL directory of one replica of one shard.
func ReplicaDir(dir string, shard, replica int) string {
	return filepath.Join(ShardDir(dir, shard), fmt.Sprintf("replica-%d", replica))
}

// OpenReplicated recovers a sharded catalog from dir with R replicas
// per shard: each replica replays its own WAL+snapshot under
// shard-<i>/replica-<j>/, each shard's log is recovered from its
// furthest-along replica, which is compacted into any replica that lags
// it, every relation is built once as the union of the shards' buckets
// at the sum of their epochs (catalog.OpenLogs), and routing comes from
// the manifest. Relations missing a manifest entry (a crash between log
// writes and the manifest write, or a rewrite that reached only some
// shards) are deterministically repartitioned: every shard's log gets
// its bucket. Opening a directory laid out for a different shard count
// is refused — re-routing existing placements across a new count is a
// data migration, not a recovery. A different replica count is fine:
// new replica directories start empty and are brought in sync at open.
// Logs written under an older layout — at the data-dir root by an
// unsharded store, or directly under shard-<i>/ before replication —
// are moved into place first, so no directory opens silently empty.
func OpenReplicated(dir string, shards, replicas int, opts storage.Options) (*Catalog, error) {
	return OpenWith(dir, shards, replicas, func(shard, replica int) (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, shard, replica), opts)
	})
}

// OpenWith is OpenReplicated with an explicit backend factory — the
// seam for wrapping replicas in instrumented or fault-injecting
// backends (storage.Faulty) without changing the recovery path.
func OpenWith(dir string, shards, replicas int, backend func(shard, replica int) (storage.Backend, error)) (*Catalog, error) {
	shards = max(shards, 1)
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if m == nil {
		// No manifest but logs at the root: an unsharded store wrote this
		// directory, which makes it a one-shard layout.
		logs, err := legacyLogs(dir)
		if err != nil {
			return nil, err
		}
		if len(logs) > 0 {
			m = &manifest{Shards: 1}
		}
	}
	if m != nil && m.Shards != shards {
		return nil, fmt.Errorf("shard: %s is laid out for %d shards, cannot open with %d", dir, m.Shards, shards)
	}
	if err := migrateLegacyLogs(dir, ReplicaDir(dir, 0, 0)); err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		if err := migrateLegacyLogs(ShardDir(dir, i), ReplicaDir(dir, i, 0)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	replicas = max(replicas, 1)
	logs := make([][]storage.Backend, shards)
	fail := func(err error) (*Catalog, error) {
		for _, members := range logs {
			for _, b := range members {
				b.Close()
			}
		}
		return nil, err
	}
	for i := range logs {
		for j := 0; j < replicas; j++ {
			b, err := backend(i, j)
			if err != nil {
				return fail(fmt.Errorf("shard %d replica %d: %w", i, j, err))
			}
			logs[i] = append(logs[i], b)
		}
	}
	if m == nil {
		m = &manifest{}
	}
	c, err := open(shards, replicas, dir, m.Relations, logs)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// legacyLogs lists the WAL and snapshot files lying directly in dir —
// what a store leaves there when it was written before its owner kept
// every log under shard-<i>/replica-<j>/.
func legacyLogs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snapshot-")) {
			files = append(files, name)
		}
	}
	return files, nil
}

// migrateLegacyLogs moves the logs lying directly in from into the
// replica directory to, unless to already exists (then whatever lies in
// from is not this store's serving log). Both older layouts migrate
// through it: the data-dir root of an unsharded store and the
// pre-replication shard-<i>/, each becoming replica 0 of its shard, so
// a store written by either opens cleanly at any replica count.
func migrateLegacyLogs(from, to string) error {
	if _, err := os.Stat(to); err == nil {
		return nil
	}
	files, err := legacyLogs(from)
	if err != nil || len(files) == 0 {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, name := range files {
		if err := os.Rename(filepath.Join(from, name), filepath.Join(to, name)); err != nil {
			return err
		}
	}
	return nil
}

// router is a shard catalog's catalog.Router: it routes by Partition,
// gives recovered relations their partitions from the manifest, and
// persists every change to them in it.
type router struct {
	shards, replicas int
	dir              string // "" for in-memory: nothing is persisted
	recovered        map[string]Partition
}

func (r *router) Choose(vars []string, tuples [][]int) catalog.Layout {
	return choosePartition(vars, tuples, r.shards)
}

func (r *router) Recovered(name string) (catalog.Layout, bool) {
	p, ok := r.recovered[name]
	return p, ok
}

// Save writes the manifest atomically (temp + rename).
func (r *router) Save(layouts map[string]catalog.Layout) error {
	if r.dir == "" {
		return nil
	}
	m := manifest{Shards: r.shards, Replicas: r.replicas, Relations: make(map[string]Partition, len(layouts))}
	for name, l := range layouts {
		m.Relations[name] = l.(Partition)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: reading %s: %w", path, err)
	}
	return &m, nil
}
