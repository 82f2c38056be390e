package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	minesweeper "minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/relio"
	"minesweeper/internal/rows"
	"minesweeper/internal/storage"
)

// manifestName is the routing manifest at the data-dir root. The
// manifest is authoritative for how stored tuples were physically
// routed: re-deriving a partition from statistics after recovery could
// disagree with the placement the fragments actually hold, which would
// silently break the colocation invariant the scatter executor needs.
const manifestName = "shards.json"

// manifest is the durable routing state: the shard count the directory
// is laid out for and the partition of every relation. The replica
// count is recorded for introspection but not enforced — growing or
// shrinking the replica set is a resync, not a data migration, so a
// directory opens at any replica count.
type manifest struct {
	Shards    int                  `json:"shards"`
	Replicas  int                  `json:"replicas,omitempty"`
	Relations map[string]Partition `json:"relations"`
}

// shardCounters is one shard's serving-side telemetry: scatter runs
// started, substream tuples emitted, currently running substreams,
// substream producers currently blocked on a full gather channel (the
// hot-shard signal), substream retries on a sibling replica, and
// substream panics recovered.
type shardCounters struct {
	runs     atomic.Int64
	emitted  atomic.Int64
	inflight atomic.Int64
	queued   atomic.Int64
	retries  atomic.Int64
	panics   atomic.Int64
}

// ReplicaStat describes one replica of a shard for /stats.
type ReplicaStat struct {
	Replica int           `json:"replica"`
	Primary bool          `json:"primary"`
	Down    string        `json:"down,omitempty"`
	Storage storage.Stats `json:"storage"`
}

// ShardStat describes one shard for /stats.
type ShardStat struct {
	Shard     int           `json:"shard"`
	Primary   int           `json:"primary"`
	Relations int           `json:"relations"`
	Tuples    int           `json:"tuples"`
	Runs      int64         `json:"runs"`
	Inflight  int64         `json:"inflight"`
	Queued    int64         `json:"queued"`
	Emitted   int64         `json:"emitted"`
	Retries   int64         `json:"retries,omitempty"`
	Panics    int64         `json:"panics,omitempty"`
	Degraded  string        `json:"degraded,omitempty"`
	Storage   storage.Stats `json:"storage"`
	Replicas  []ReplicaStat `json:"replicas,omitempty"`
}

// ReplicaRef names one down replica and why, for targeted reopening.
type ReplicaRef struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Err     string `json:"error"`
}

// Catalog owns N per-shard fragment sets, each carried by R replicas
// (every replica a full catalog.Catalog over its own storage.Backend
// and WAL directory), plus a gathered in-memory view holding every
// relation whole. The view serves parses, reads and plans — a query is
// built against view relations exactly as against an unsharded
// catalog — while the fragments serve scatter execution and
// durability.
//
// Mutations route tuples by each relation's Partition, log-then-apply
// on the shard's primary replica first, then synchronously fan out to
// the healthy followers with a divergence check on the mutated
// relation's epoch stamp. A primary whose store is poisoned is marked
// down and a healthy follower is promoted in its place — the mutation
// retries there, so a single replica failure never flips the shard
// read-only. The API mirrors catalog.Catalog so the serving layer
// treats the two uniformly.
type Catalog struct {
	n    int
	r    int
	dir  string // "" for in-memory
	opts storage.Options

	// mu serializes mutations, replica-set changes and partition
	// changes; reads go straight to the view (which has its own lock).
	mu       sync.Mutex
	replicas [][]*catalog.Catalog // [shard][replica]
	primary  []int                // serving replica per shard
	down     [][]error            // non-nil marks a failed replica
	view     *catalog.Catalog
	parts    map[string]Partition
	version  uint64 // bumped on parts/replica-set changes; scatter plans pin it
	counters []shardCounters

	failovers atomic.Int64

	// killHook, when set (tests only), is consulted before each
	// substream tuple with the serving (shard, replica); a non-nil
	// return fails the substream as if the replica died mid-stream.
	killHook func(shard, replica int, tuple []int) error
}

func newCatalog(shards, replicas int, dir string, opts storage.Options) *Catalog {
	c := &Catalog{
		n:        shards,
		r:        replicas,
		dir:      dir,
		opts:     opts,
		view:     catalog.New(),
		replicas: make([][]*catalog.Catalog, shards),
		primary:  make([]int, shards),
		down:     make([][]error, shards),
		parts:    make(map[string]Partition),
		counters: make([]shardCounters, shards),
	}
	for i := range c.replicas {
		c.replicas[i] = make([]*catalog.Catalog, replicas)
		c.down[i] = make([]error, replicas)
	}
	return c
}

// New returns an in-memory sharded catalog (no durability, one replica
// per shard), for tests and -data-dir-less serving.
func New(shards int) *Catalog { return NewReplicated(shards, 1) }

// NewReplicated returns an in-memory sharded catalog with R replicas
// per shard. Without durable backends a down replica cannot be
// reopened from disk, but failover, fan-out and divergence checks
// behave exactly as over durable stores.
func NewReplicated(shards, replicas int) *Catalog {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	c := newCatalog(shards, replicas, "", storage.Options{})
	for i := range c.replicas {
		for j := range c.replicas[i] {
			c.replicas[i][j] = catalog.New()
		}
	}
	return c
}

// ShardDir returns the directory of one shard under the data dir.
func ShardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
}

// ReplicaDir returns the WAL directory of one replica of one shard.
func ReplicaDir(dir string, shard, replica int) string {
	return filepath.Join(ShardDir(dir, shard), fmt.Sprintf("replica-%d", replica))
}

// Open recovers a single-replica sharded catalog from dir — the
// pre-replication entry point, kept for callers that don't replicate.
func Open(dir string, shards int, opts storage.Options) (*Catalog, error) {
	return OpenReplicated(dir, shards, 1, opts)
}

// OpenReplicated recovers a sharded catalog from dir with R replicas
// per shard: each replica replays its own WAL+snapshot under
// shard-<i>/replica-<j>/ (restoring exact per-fragment epochs), the
// furthest-along replica of each shard is elected primary and its
// siblings are resynced from it, the gathered view is rebuilt from the
// primaries, and routing comes from the manifest. Relations missing a
// manifest entry (a crash between fragment writes and the manifest
// write) are deterministically repartitioned and redistributed.
// Opening a directory laid out for a different shard count is refused
// — re-routing existing placements across a new count is a data
// migration, not a recovery. A different replica count is fine: new
// replica directories start empty and resync from the elected primary.
func OpenReplicated(dir string, shards, replicas int, opts storage.Options) (*Catalog, error) {
	return OpenWith(dir, shards, replicas, opts, func(shard, replica int) (storage.Backend, error) {
		return storage.OpenDurable(ReplicaDir(dir, shard, replica), opts)
	})
}

// OpenWith is OpenReplicated with an explicit backend factory — the
// seam for wrapping replicas in instrumented or fault-injecting
// backends (storage.Faulty) without changing the recovery path.
func OpenWith(dir string, shards, replicas int, opts storage.Options, backend func(shard, replica int) (storage.Backend, error)) (*Catalog, error) {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	if m != nil && m.Shards != shards {
		return nil, fmt.Errorf("shard: %s is laid out for %d shards, cannot open with %d", dir, m.Shards, shards)
	}
	for i := 0; i < shards; i++ {
		if err := migrateLegacyShardDir(ShardDir(dir, i)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	c := newCatalog(shards, replicas, dir, opts)
	for i := 0; i < shards; i++ {
		for j := 0; j < replicas; j++ {
			b, err := backend(i, j)
			if err != nil {
				c.closeOpened()
				return nil, fmt.Errorf("shard %d replica %d: %w", i, j, err)
			}
			cat, err := catalog.Open(b)
			if err != nil {
				b.Close()
				c.closeOpened()
				return nil, fmt.Errorf("shard %d replica %d: %w", i, j, err)
			}
			c.replicas[i][j] = cat
		}
	}
	if err := c.recover(m); err != nil {
		c.closeOpened()
		return nil, err
	}
	return c, nil
}

// migrateLegacyShardDir moves a pre-replication shard layout (WAL and
// snapshot files directly under shard-<i>/) into replica-0/, so a
// store written before replication opens cleanly at any replica count.
func migrateLegacyShardDir(sd string) error {
	if _, err := os.Stat(filepath.Join(sd, "replica-0")); err == nil {
		return nil
	}
	entries, err := os.ReadDir(sd)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snapshot-")) {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return nil
	}
	r0 := filepath.Join(sd, "replica-0")
	if err := os.MkdirAll(r0, 0o755); err != nil {
		return err
	}
	for _, name := range files {
		if err := os.Rename(filepath.Join(sd, name), filepath.Join(r0, name)); err != nil {
			return err
		}
	}
	return nil
}

func (c *Catalog) closeOpened() {
	for i := range c.replicas {
		for _, cc := range c.replicas[i] {
			if cc != nil {
				cc.Close()
			}
		}
	}
}

// replicaScore ranks a recovered replica for primary election:
// epoch sum first (the furthest-along mutation history), then relation
// and tuple counts as tie-breaks so an empty new replica directory
// never outranks real data.
type replicaScore struct {
	epochs uint64
	rels   int
	tuples int
}

func (s replicaScore) beats(o replicaScore) bool {
	if s.epochs != o.epochs {
		return s.epochs > o.epochs
	}
	if s.rels != o.rels {
		return s.rels > o.rels
	}
	return s.tuples > o.tuples
}

func scoreReplica(cc *catalog.Catalog) replicaScore {
	var s replicaScore
	for _, info := range cc.Relations() {
		s.epochs += info.Epoch
		s.rels++
		s.tuples += info.Tuples
	}
	return s
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

// recover elects each shard's primary, resyncs its siblings, rebuilds
// the gathered view and routing table from the primaries plus the
// manifest.
func (c *Catalog) recover(m *manifest) error {
	for i := range c.replicas {
		best, bs := 0, scoreReplica(c.replicas[i][0])
		for j := 1; j < c.r; j++ {
			if s := scoreReplica(c.replicas[i][j]); s.beats(bs) {
				best, bs = j, s
			}
		}
		c.primary[i] = best
		for j := range c.replicas[i] {
			if j == best {
				continue
			}
			if err := resyncFrom(c.replicas[i][j], c.replicas[i][best], i == 0); err != nil {
				return fmt.Errorf("shard %d: resyncing replica %d: %w", i, j, err)
			}
		}
	}
	names := map[string]bool{}
	for i := range c.replicas {
		for _, n := range c.leaderLocked(i).Names() {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		var vars []string
		var gathered [][]int
		var epochSum uint64
		for i := range c.replicas {
			lead := c.leaderLocked(i)
			rel, ok := lead.Get(name)
			if !ok {
				continue
			}
			if vars == nil {
				vars, _ = lead.Vars(name)
			}
			gathered = append(gathered, rel.Tuples()...)
			epochSum += rel.Epoch()
		}
		rel, err := c.view.Create(name, vars, gathered)
		if err != nil {
			return fmt.Errorf("shard: gathering relation %q: %w", name, err)
		}
		if err := rel.RestoreEpoch(epochSum); err != nil {
			return fmt.Errorf("shard: gathering relation %q: %w", name, err)
		}
		if m != nil {
			if p, ok := m.Relations[name]; ok && p.Column < len(vars) {
				c.parts[name] = p
				continue
			}
		}
		// No (usable) manifest entry: repartition deterministically and
		// redistribute the gathered tuples so the colocation invariant
		// holds again.
		p := choosePartition(vars, gathered, c.n)
		if err := c.redistribute(name, vars, gathered, p); err != nil {
			return fmt.Errorf("shard: repartitioning relation %q: %w", name, err)
		}
		c.parts[name] = p
	}
	return c.writeManifest()
}

// redistribute replaces every replica's fragment of name with its
// bucket under p, creating the relation where it is missing. Recovery
// only — it assumes every replica is healthy and in lockstep, which
// holds right after resyncFrom.
func (c *Catalog) redistribute(name string, vars []string, tuples [][]int, p Partition) error {
	buckets := p.split(tuples, c.n)
	for i := range c.replicas {
		for _, cc := range c.replicas[i] {
			if _, ok := cc.Get(name); ok {
				if _, err := cc.Replace(name, buckets[i]); err != nil {
					return err
				}
				continue
			}
			if _, err := cc.Create(name, vars, buckets[i]); err != nil {
				return err
			}
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
	if m.Relations == nil {
		m.Relations = map[string]Partition{}
	}
	return &m, nil
}

// checkTuples mirrors the catalog's pre-mutation validation: routing
// indexes into tuples by the partition column, so arity and domain must
// hold before any tuple is routed.
func checkTuples(name string, arity int, tuples [][]int) error {
	if err := rows.Check(arity, tuples); err != nil {
		return fmt.Errorf("catalog: relation %q: %w", name, err)
	}
	return nil
}

// --- replica health and failover --------------------------------------

// leaderLocked returns shard i's serving replica. Callers hold c.mu.
func (c *Catalog) leaderLocked(i int) *catalog.Catalog { return c.replicas[i][c.primary[i]] }

// markDownLocked records a replica failure (first cause wins) and bumps
// the plan version so scatter plans re-bind off the dead replica.
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
		if c.down[shard][j] == nil && cc.Healthy() == nil {
			if c.primary[shard] != j {
				c.primary[shard] = j
				c.failovers.Add(1)
			}
			c.version++
			return true
		}
	}
	return false
}

// markReplicaDown is the scatter executor's failure-detection entry:
// a substream that found its replica dead mid-run marks it here, and
// leadership moves if the dead replica was serving.
func (c *Catalog) markReplicaDown(shard, replica int, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markDownLocked(shard, replica, cause)
	if c.primary[shard] == replica {
		c.promoteLocked(shard)
	}
}

// replicaHealth reports whether a replica can keep serving a
// substream: its down marker if set, else its catalog's health (which
// asks the backend directly, so out-of-band poisoning — an injected
// sync failure with no intervening mutation — is caught too).
func (c *Catalog) replicaHealth(shard, replica int) error {
	c.mu.Lock()
	if err := c.down[shard][replica]; err != nil {
		c.mu.Unlock()
		return err
	}
	cc := c.replicas[shard][replica]
	c.mu.Unlock()
	return cc.Healthy()
}

// shardDegradedLocked returns nil while the shard has at least one
// healthy replica; otherwise the first replica's failure.
func (c *Catalog) shardDegradedLocked(i int) error {
	var firstErr error
	for j, cc := range c.replicas[i] {
		err := c.down[i][j]
		if err == nil {
			err = cc.Healthy()
		}
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
// or diverges is marked down — the mutation still succeeds. Only when
// no replica can accept the mutation does the shard surface an error
// (which wraps the primary's ErrReadOnly, so the serving layer still
// classifies it as 503 read-only).
func (c *Catalog) applyShardLocked(i int, rel string, apply func(cc *catalog.Catalog) error) error {
	for {
		lead := c.primary[i]
		cc := c.replicas[i][lead]
		if c.down[i][lead] != nil {
			if !c.promoteLocked(i) {
				return fmt.Errorf("shard %d: no healthy replica: %w", i, c.down[i][lead])
			}
			continue
		}
		err := apply(cc)
		if err == nil {
			break
		}
		if cc.Healthy() != nil {
			// Storage fault: the primary poisoned itself. Mark it down,
			// promote a follower, retry there.
			c.markDownLocked(i, lead, err)
			if !c.promoteLocked(i) {
				return fmt.Errorf("shard %d: no healthy replica: %w", i, err)
			}
			continue
		}
		// Validation failure — deterministic, would fail identically on
		// every replica. Not a failover trigger.
		return err
	}
	lead := c.primary[i]
	for j, cc := range c.replicas[i] {
		if j == lead || c.down[i][j] != nil {
			continue
		}
		if err := apply(cc); err != nil {
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
	return nil
}

// rebuildViewLocked resynchronizes the view of one relation with the
// union of its primary fragments — the generic repair after a mutation
// applied to only part of the shard set.
func (c *Catalog) rebuildViewLocked(name string) {
	var vars []string
	var gathered [][]int
	found := false
	for i := range c.replicas {
		lead := c.leaderLocked(i)
		rel, ok := lead.Get(name)
		if !ok {
			continue
		}
		if vars == nil {
			vars, _ = lead.Vars(name)
		}
		found = true
		gathered = append(gathered, rel.Tuples()...)
	}
	if !found {
		c.view.Drop(name)
		return
	}
	if _, ok := c.view.Get(name); ok {
		c.view.Replace(name, gathered)
		return
	}
	c.view.Create(name, vars, gathered)
}

// Shards returns the shard count.
func (c *Catalog) Shards() int { return c.n }

// ReplicaCount returns the per-shard replica count.
func (c *Catalog) ReplicaCount() int { return c.r }

// Primary returns the shard's current serving replica index.
func (c *Catalog) Primary(shard int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary[shard]
}

// Failovers returns how many times leadership moved off a failed
// primary.
func (c *Catalog) Failovers() int64 { return c.failovers.Load() }

// PartitionOf returns the relation's current partition. ok is false for
// unknown relations and for relations left unpartitioned by a partial
// replace failure (those are excluded from scatter until repaired).
func (c *Catalog) PartitionOf(name string) (Partition, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[name]
	return p, ok
}

// partsVersion pins the routing table's revision for scatter plans.
func (c *Catalog) partsVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Create splits the tuples under a planner-chosen partition, creates
// the owning fragment on every shard (all replicas), then the gathered
// view relation, which it returns.
func (c *Catalog) Create(name string, vars []string, tuples [][]int) (*minesweeper.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validateNew(name, vars, tuples); err != nil {
		return nil, err
	}
	p := choosePartition(vars, tuples, c.n)
	buckets := p.split(tuples, c.n)
	for i := 0; i < c.n; i++ {
		b := buckets[i]
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			_, err := cc.Create(name, vars, b)
			return err
		}); err != nil {
			c.dropEverywhereLocked(name)
			return nil, err
		}
	}
	rel, err := c.view.Create(name, vars, tuples)
	if err != nil {
		c.dropEverywhereLocked(name)
		return nil, err
	}
	c.parts[name] = p
	c.version++
	if err := c.writeManifest(); err != nil {
		return nil, err
	}
	return rel, nil
}

// dropEverywhereLocked rolls a partially created relation back off
// every healthy replica (best effort — failures just leave a dangling
// fragment that recovery's resync will reconcile).
func (c *Catalog) dropEverywhereLocked(name string) {
	for i := range c.replicas {
		for j, cc := range c.replicas[i] {
			if c.down[i][j] != nil {
				continue
			}
			if _, ok := cc.Get(name); ok {
				cc.Drop(name)
			}
		}
	}
}

// validateNew pre-checks a Create before any tuple is routed.
func (c *Catalog) validateNew(name string, vars []string, tuples [][]int) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	if len(vars) == 0 {
		return fmt.Errorf("catalog: relation %q: empty variable list", name)
	}
	seen := map[string]bool{}
	for _, v := range vars {
		if seen[v] {
			return fmt.Errorf("catalog: relation %q: repeated variable %q", name, v)
		}
		seen[v] = true
	}
	if _, dup := c.view.Get(name); dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	return checkTuples(name, len(vars), tuples)
}

// Insert routes the tuples to their owning fragments, applies the
// per-shard inserts (primary first, fan-out to followers), then the
// view insert, whose gathered Info it returns. On a shard-wide failure
// the view is rebuilt from the fragments so reads stay consistent with
// what was durably applied; the colocation invariant is unaffected
// (every applied copy was routed).
func (c *Catalog) Insert(name string, tuples ...[]int) (catalog.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, ok := c.view.Get(name)
	if !ok {
		return catalog.Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := checkTuples(name, rel.Arity(), tuples); err != nil {
		return catalog.Info{}, err
	}
	p, partitioned := c.parts[name]
	var buckets [][][]int
	if partitioned {
		buckets = p.split(tuples, c.n)
	} else {
		// Unpartitioned fallback (after a partial replace failure): park
		// new rows on shard 0; the relation is excluded from scatter
		// until recovery repartitions it, so placement is free.
		buckets = make([][][]int, c.n)
		buckets[0] = tuples
	}
	for i, b := range buckets {
		if len(b) == 0 && !(i == 0 && len(tuples) == 0) {
			continue
		}
		b := b
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			_, err := cc.Insert(name, b...)
			return err
		}); err != nil {
			c.rebuildViewLocked(name)
			return catalog.Info{}, err
		}
	}
	return c.view.Insert(name, tuples...)
}

// Delete removes every stored copy of each tuple. Partitioned relations
// route the deletes (copies colocate); unpartitioned ones broadcast to
// every shard, which is correct under any placement.
func (c *Catalog) Delete(name string, tuples ...[]int) (int, catalog.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, ok := c.view.Get(name)
	if !ok {
		return 0, catalog.Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := checkTuples(name, rel.Arity(), tuples); err != nil {
		return 0, catalog.Info{}, err
	}
	p, partitioned := c.parts[name]
	buckets := make([][][]int, c.n)
	if partitioned {
		buckets = p.split(tuples, c.n)
	} else {
		for i := range buckets {
			buckets[i] = tuples
		}
	}
	for i, b := range buckets {
		if len(b) == 0 && !(i == 0 && len(tuples) == 0) {
			continue
		}
		b := b
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			_, _, err := cc.Delete(name, b...)
			return err
		}); err != nil {
			c.rebuildViewLocked(name)
			return 0, catalog.Info{}, err
		}
	}
	return c.view.Delete(name, tuples...)
}

// Replace swaps the relation's contents, re-choosing its partition for
// the new data and rewriting every fragment. A shard-wide failure
// leaves fragments under two different layouts, which breaks the
// colocation invariant — the relation is demoted to unpartitioned
// (gathered execution only, no scatter) until a restart repartitions
// it.
func (c *Catalog) Replace(name string, tuples [][]int) (catalog.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, ok := c.view.Get(name)
	if !ok {
		return catalog.Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := checkTuples(name, rel.Arity(), tuples); err != nil {
		return catalog.Info{}, err
	}
	vars, _ := c.view.Vars(name)
	p := choosePartition(vars, tuples, c.n)
	buckets := p.split(tuples, c.n)
	for i := 0; i < c.n; i++ {
		b := buckets[i]
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			_, err := cc.Replace(name, b)
			return err
		}); err != nil {
			delete(c.parts, name)
			c.version++
			c.rebuildViewLocked(name)
			c.writeManifest()
			return catalog.Info{}, err
		}
	}
	c.parts[name] = p
	c.version++
	if err := c.writeManifest(); err != nil {
		return catalog.Info{}, err
	}
	return c.view.Replace(name, tuples)
}

// ForcePartition rewrites the relation's fragments under an explicitly
// given partition — an administrative/testing hook for exercising a
// routing mode the statistics would not choose. Splits must be strictly
// increasing for range mode.
func (c *Catalog) ForcePartition(name string, p Partition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, ok := c.view.Get(name)
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if p.Column < 0 || p.Column >= rel.Arity() {
		return fmt.Errorf("shard: partition column %d out of range for arity %d", p.Column, rel.Arity())
	}
	if p.Mode != ModeHash && p.Mode != ModeRange {
		return fmt.Errorf("shard: unknown partition mode %q", p.Mode)
	}
	for i := 1; i < len(p.Splits); i++ {
		if p.Splits[i] <= p.Splits[i-1] {
			return fmt.Errorf("shard: range splits must be strictly increasing")
		}
	}
	vars, _ := c.view.Vars(name)
	buckets := p.split(rel.Tuples(), c.n)
	for i := 0; i < c.n; i++ {
		b := buckets[i]
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			if _, ok := cc.Get(name); ok {
				_, err := cc.Replace(name, b)
				return err
			}
			_, err := cc.Create(name, vars, b)
			return err
		}); err != nil {
			delete(c.parts, name)
			c.version++
			c.rebuildViewLocked(name)
			c.writeManifest()
			return err
		}
	}
	c.parts[name] = p
	c.version++
	return c.writeManifest()
}

// Drop removes the relation from every shard and the view.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.view.Get(name); !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	for i := 0; i < c.n; i++ {
		if err := c.applyShardLocked(i, name, func(cc *catalog.Catalog) error {
			if _, ok := cc.Get(name); !ok {
				return nil
			}
			return cc.Drop(name)
		}); err != nil {
			c.rebuildViewLocked(name)
			return err
		}
	}
	delete(c.parts, name)
	c.version++
	if err := c.writeManifest(); err != nil {
		return err
	}
	return c.view.Drop(name)
}

// Load reads a relation in the relio interchange format and
// creates-or-replaces it, splitting the rows across the shard set under
// a freshly chosen partition.
func (c *Catalog) Load(r io.Reader, source string) (catalog.Info, error) {
	parsed, err := relio.ReadRelation(r, source)
	if err != nil {
		return catalog.Info{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rel, exists := c.view.Get(parsed.Name); exists && rel.Arity() != len(parsed.Vars) {
		return catalog.Info{}, fmt.Errorf("catalog: relation %q exists with arity %d, load has arity %d (drop it first)",
			parsed.Name, rel.Arity(), len(parsed.Vars))
	}
	if err := checkTuples(parsed.Name, len(parsed.Vars), parsed.Tuples); err != nil {
		return catalog.Info{}, err
	}
	p := choosePartition(parsed.Vars, parsed.Tuples, c.n)
	buckets := p.split(parsed.Tuples, c.n)
	for i := 0; i < c.n; i++ {
		b := buckets[i]
		if err := c.applyShardLocked(i, parsed.Name, func(cc *catalog.Catalog) error {
			return loadInto(cc, parsed.Name, parsed.Vars, b, source)
		}); err != nil {
			delete(c.parts, parsed.Name)
			c.version++
			c.rebuildViewLocked(parsed.Name)
			c.writeManifest()
			return catalog.Info{}, err
		}
	}
	var buf bytes.Buffer
	if err := relio.WriteRelation(&buf, parsed); err != nil {
		return catalog.Info{}, err
	}
	info, err := c.view.Load(&buf, source)
	if err != nil {
		return info, err
	}
	c.parts[parsed.Name] = p
	c.version++
	if err := c.writeManifest(); err != nil {
		return info, err
	}
	return info, nil
}

// loadInto create-or-replaces one fragment through the catalog's Load
// path, so the fragment's default binding tracks the upload's vars.
func loadInto(inner *catalog.Catalog, name string, vars []string, tuples [][]int, source string) error {
	var buf bytes.Buffer
	if err := relio.WriteRelation(&buf, &relio.Relation{Name: name, Vars: vars, Tuples: tuples}); err != nil {
		return err
	}
	_, err := inner.Load(&buf, source)
	return err
}

// Get returns the gathered view relation: queries parse and plan
// against whole relations; fragments surface only through scatter.
func (c *Catalog) Get(name string) (*minesweeper.Relation, bool) { return c.view.Get(name) }

// Fragment returns the primary replica's fragment of the relation on
// one shard.
func (c *Catalog) Fragment(shard int, name string) (*minesweeper.Relation, bool) {
	c.mu.Lock()
	cc := c.leaderLocked(shard)
	c.mu.Unlock()
	return cc.Get(name)
}

// ReplicaFragment returns one specific replica's fragment.
func (c *Catalog) ReplicaFragment(shard, replica int, name string) (*minesweeper.Relation, bool) {
	c.mu.Lock()
	cc := c.replicas[shard][replica]
	c.mu.Unlock()
	return cc.Get(name)
}

// Vars returns the relation's default variable binding.
func (c *Catalog) Vars(name string) ([]string, bool) { return c.view.Vars(name) }

// Len returns the number of cataloged relations.
func (c *Catalog) Len() int { return c.view.Len() }

// Names returns the sorted relation names.
func (c *Catalog) Names() []string { return c.view.Names() }

// Relations describes every cataloged relation (gathered totals).
func (c *Catalog) Relations() []catalog.Info { return c.view.Relations() }

// Dump writes the gathered relation in the relio interchange format.
func (c *Catalog) Dump(w io.Writer, name string) error { return c.view.Dump(w, name) }

// DumpFile writes the gathered relation to a file atomically.
func (c *Catalog) DumpFile(path, name string) error { return c.view.DumpFile(path, name) }

// Query parses a textual join expression against the gathered view.
func (c *Catalog) Query(expr string) (*minesweeper.Query, error) { return c.view.Query(expr) }

// PutQueryDef stores a prepared-query definition durably (on shard 0 —
// definitions are control-plane state, not partitioned data — with the
// usual primary-then-followers fan-out).
func (c *Catalog) PutQueryDef(def storage.QueryDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applyShardLocked(0, "", func(cc *catalog.Catalog) error { return cc.PutQueryDef(def) })
}

// DropQueryDef removes a stored definition.
func (c *Catalog) DropQueryDef(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applyShardLocked(0, "", func(cc *catalog.Catalog) error { return cc.DropQueryDef(name) })
}

// QueryDefs returns the stored definitions.
func (c *Catalog) QueryDefs() []storage.QueryDef {
	c.mu.Lock()
	cc := c.leaderLocked(0)
	c.mu.Unlock()
	return cc.QueryDefs()
}

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
// down by failover/divergence/substream detection, or with a poisoned
// backend — for the serving layer to reopen on independent schedules.
func (c *Catalog) DownReplicas() []ReplicaRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ReplicaRef
	for i := range c.replicas {
		for j, cc := range c.replicas[i] {
			err := c.down[i][j]
			if err == nil {
				err = cc.Healthy()
			}
			if err != nil {
				out = append(out, ReplicaRef{Shard: i, Replica: j, Err: err.Error()})
			}
		}
	}
	return out
}

// ReopenReplica restarts one replica on a fresh backend from open and
// resyncs it from the shard's authoritative in-memory state. While it
// runs, mutations pause (c.mu) but reads never do: the view is
// untouched and in-flight scatter substreams keep their bound fragment
// objects. The authority is the current primary's in-memory catalog —
// by log-then-apply it is exactly the applied mutation prefix, and it
// stays the authority even when the primary's own store is poisoned
// (its memory still holds the served state). Reopening the primary
// itself therefore resyncs it from its own memory: relations whose
// recovered epoch already matches are left alone, anything else
// (including a torn or half-applied tail) is force-restored. If the
// shard's leadership sits on a down replica afterwards, the freshly
// reopened one is promoted.
func (c *Catalog) ReopenReplica(shard, replica int, open func() (storage.Backend, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reopenReplicaLocked(shard, replica, open)
}

func (c *Catalog) reopenReplicaLocked(i, j int, open func() (storage.Backend, error)) error {
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
	c.replicas[i][j] = cc
	c.down[i][j] = nil
	c.version++
	if err := resyncFrom(cc, src, i == 0); err != nil {
		err = fmt.Errorf("shard %d replica %d: resync: %w", i, j, err)
		c.markDownLocked(i, j, err)
		return err
	}
	lead := c.primary[i]
	if c.down[i][lead] != nil || c.replicas[i][lead].Healthy() != nil {
		c.promoteLocked(i)
	}
	return nil
}

// RollingReopen restarts every replica one at a time — shard by shard,
// replica by replica — while each one's siblings keep serving. With
// R > 1 the store never loses a healthy replica set, so /readyz stays
// ready throughout; reads are never interrupted in any case (the view
// and bound fragments survive replica swaps).
func (c *Catalog) RollingReopen(open func(shard, replica int) (storage.Backend, error)) error {
	var first error
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.r; j++ {
			i, j := i, j
			if err := c.ReopenReplica(i, j, func() (storage.Backend, error) { return open(i, j) }); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Sync flushes every healthy replica's backend.
func (c *Catalog) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i := range c.replicas {
		for j, cc := range c.replicas[i] {
			if c.down[i][j] != nil {
				continue
			}
			if err := cc.Sync(); err != nil && first == nil {
				first = fmt.Errorf("shard %d replica %d: %w", i, j, err)
			}
		}
	}
	return first
}

// Close releases every replica's backend and the view.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i := range c.replicas {
		for j, cc := range c.replicas[i] {
			if err := cc.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard %d replica %d: %w", i, j, err)
			}
		}
	}
	if err := c.view.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// StorageStats aggregates the primaries' storage statistics (counters
// summed, mode and sequence from shard 0's primary, Dir the data-dir
// root) — one copy of the data, matching the unreplicated meaning.
func (c *Catalog) StorageStats() storage.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.leaderLocked(0).StorageStats()
	agg.Dir = c.dir
	for i := 1; i < c.n; i++ {
		s := c.leaderLocked(i).StorageStats()
		agg.WALRecords += s.WALRecords
		agg.WALBytes += s.WALBytes
		agg.Snapshots += s.Snapshots
		agg.SnapshotBytes += s.SnapshotBytes
		agg.Syncs += s.Syncs
		agg.RecoveredRelations += s.RecoveredRelations
		agg.RecoveredQueries += s.RecoveredQueries
		agg.ReplayedRecords += s.ReplayedRecords
		agg.TruncatedBytes += s.TruncatedBytes
		if agg.LastError == "" {
			agg.LastError = s.LastError
		}
	}
	return agg
}

// ShardStats describes every shard for /stats: per-shard data volume,
// scatter activity (the hot-shard signal), failover/retry counters and
// per-replica storage health.
func (c *Catalog) ShardStats() []ShardStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStat, c.n)
	for i := range out {
		lead := c.primary[i]
		cc := c.replicas[i][lead]
		st := ShardStat{
			Shard:    i,
			Primary:  lead,
			Runs:     c.counters[i].runs.Load(),
			Inflight: c.counters[i].inflight.Load(),
			Queued:   c.counters[i].queued.Load(),
			Emitted:  c.counters[i].emitted.Load(),
			Retries:  c.counters[i].retries.Load(),
			Panics:   c.counters[i].panics.Load(),
			Storage:  cc.StorageStats(),
		}
		for _, info := range cc.Relations() {
			st.Relations++
			st.Tuples += info.Tuples
		}
		if err := c.shardDegradedLocked(i); err != nil {
			st.Degraded = err.Error()
		}
		st.Replicas = make([]ReplicaStat, c.r)
		for j, rc := range c.replicas[i] {
			rs := ReplicaStat{Replica: j, Primary: j == lead, Storage: rc.StorageStats()}
			if err := c.down[i][j]; err != nil {
				rs.Down = err.Error()
			} else if err := rc.Healthy(); err != nil {
				rs.Down = err.Error()
			}
			st.Replicas[j] = rs
		}
		out[i] = st
	}
	return out
}
