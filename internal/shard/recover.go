package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"minesweeper/internal/catalog"
	"minesweeper/internal/storage"
)

// manifestName is the routing manifest at the data-dir root. The
// manifest is authoritative for how stored tuples were physically
// routed: re-deriving a partition from statistics after recovery could
// disagree with the placement the fragments actually hold, which would
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
// shard-<i>/replica-<j>/, each shard's catalog is built once from its
// furthest-along replica (restoring exact per-fragment epochs) and
// compacts that state into any replica that lags it (catalog.Open), the
// gathered copy (if any) is rebuilt from the fragments, and routing
// comes from the manifest. Relations missing a manifest entry (a crash
// between fragment writes and the manifest write) are deterministically
// repartitioned and redistributed. Opening a directory laid out for a
// different shard count is refused — re-routing existing placements
// across a new count is a data migration, not a recovery. A different
// replica count is fine: new replica directories start empty and are
// brought in sync at open.
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
	c := newCatalog(shards, replicas, dir)
	for i := range c.shards {
		members := make([]storage.Backend, 0, c.r)
		fail := func(err error) (*Catalog, error) {
			for _, b := range members {
				b.Close()
			}
			c.Close()
			return nil, err
		}
		for j := 0; j < c.r; j++ {
			b, err := backend(i, j)
			if err != nil {
				return fail(fmt.Errorf("shard %d replica %d: %w", i, j, err))
			}
			members = append(members, b)
		}
		cat, err := catalog.Open(members...)
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		c.shards[i] = cat
	}
	if err := c.recover(m); err != nil {
		c.Close()
		return nil, err
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

// recover rebuilds the gathered copy and routing table from the
// fragments plus the manifest.
func (c *Catalog) recover(m *manifest) error {
	names := map[string]bool{}
	for _, cc := range c.shards {
		for _, n := range cc.Names() {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		p, routed := Partition{}, false
		if m != nil {
			p, routed = m.Relations[name]
		}
		if c.view == nil {
			// One shard: a gather of one fragment is that fragment, so
			// nothing is copied, and one bucket holds every row colocated
			// under any partition, so nothing is redistributed either.
			if vars, _ := c.shards[0].Vars(name); !routed || p.check(len(vars), c.n) != nil {
				p = choosePartition(vars, nil, c.n)
			}
			c.parts[name] = p
			continue
		}
		vars, gathered, epochSum := c.gatherLocked(name)
		rel, err := c.view.Create(name, vars, gathered)
		if err != nil {
			return fmt.Errorf("shard: gathering relation %q: %w", name, err)
		}
		if err := rel.RestoreEpoch(epochSum); err != nil {
			return fmt.Errorf("shard: gathering relation %q: %w", name, err)
		}
		if !routed || p.check(len(vars), c.n) != nil {
			// No (usable) manifest entry: repartition deterministically and
			// redistribute the gathered tuples so the colocation invariant
			// holds again.
			p = choosePartition(vars, gathered, c.n)
			if err := c.redistribute(name, vars, gathered, p); err != nil {
				return fmt.Errorf("shard: repartitioning relation %q: %w", name, err)
			}
		}
		c.parts[name] = p
	}
	return c.writeManifest()
}

// redistribute replaces every shard's fragment of name with its bucket
// under p, creating the relation where it is missing. Recovery only.
func (c *Catalog) redistribute(name string, vars []string, tuples [][]int, p Partition) error {
	buckets := p.split(tuples, c.n)
	for i, cc := range c.shards {
		if _, err := cc.CreateOrReplace(name, vars, buckets[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest persists the routing table atomically (temp + rename).
// In-memory catalogs skip it.
func (c *Catalog) writeManifest() error {
	if c.dir == "" {
		return nil
	}
	m := manifest{Shards: c.n, Replicas: c.r, Relations: c.parts}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(c.dir, manifestName)
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
