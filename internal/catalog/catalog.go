// Package catalog is the serving layer's relation store: a versioned,
// mutable collection of named relations that queries are prepared
// against. The catalog owns the naming (Create/Drop) and routes
// mutations (Insert/Delete/Replace) to the underlying
// minesweeper.Relation values, whose epoch counters let every
// PreparedQuery bound through the catalog detect staleness and re-bind
// transparently on its next execution — the mechanism that turns the
// one-shot library into a long-lived service.
//
// The relations are held once in memory and logged to N record logs,
// each kept on R storage.Backend members. Every mutation — Create,
// Drop, Insert, Delete, Replace, the Load replace path, and the named
// prepared-query definitions — is framed as a storage.Record and
// appended to its logs *before* it touches the in-memory relation, so a
// catalog opened over durable backends recovers every relation (tuples,
// default variable binding, mutation epoch) and every query definition
// after a crash. A relation's Layout decides only which log a row's
// record goes to: log i holds bucket i of every relation, at the epoch
// its own replay reconstructs, and a relation's in-memory epoch is the
// sum of its logs' epochs. Query definitions live on log 0. One log
// (New, Open) is the unsharded store; internal/shard opens N, one per
// shard. Replication is a property of a log, not of the relations: R
// members are R copies of one log of one in-memory relation set.
// Indexes are never persisted — recovery rebuilds them lazily through
// the same epoch machinery that serves live mutations, so the warm-path
// invariants (zero reltree builds on warm re-execution) hold
// identically over every backend.
//
// Each relation carries a default variable binding (its relio header),
// so textual queries such as "R(A,B), S(B,C)" resolve against the
// catalog and relations round-trip through the relio interchange
// format.
package catalog

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"minesweeper"
	"minesweeper/internal/relio"
	"minesweeper/internal/rows"
	"minesweeper/internal/storage"
)

// ErrReadOnly marks a log in degraded read-only mode: none of its
// members can take records any more (each was poisoned by a write
// failure or left behind by its siblings), so mutations that need it
// are refused (nothing may be applied in memory that is not durably
// logged first) while reads and query execution keep working. The mode
// is left by reopening a member in place (ReopenMember) or a process
// restart.
var ErrReadOnly = errors.New("catalog: read-only: storage backend is poisoned")

// Layout routes a relation's rows to the logs: Split returns one bucket
// per log, bucket i for log i. Identical rows must share a bucket, so
// that a delete reaches every stored copy of a row through one log.
// Check reports whether the layout can route an arity-column relation
// over that many logs; a layout that cannot is never adopted.
type Layout interface {
	Split(tuples [][]int, logs int) [][][]int
	Check(arity, logs int) error
}

// A Router places relations' rows on the logs and keeps the placement
// durable.
type Router interface {
	// Choose picks the layout of a relation's new contents.
	Choose(vars []string, tuples [][]int) Layout
	// Recovered returns the layout a recovered relation's buckets were
	// logged under, if it is known.
	Recovered(name string) (Layout, bool)
	// Save persists every relation's layout — a broken relation has none
	// — after a mutation that may have moved one; an error fails it.
	Save(layouts map[string]Layout) error
}

// entry pairs a relation with its default variable binding and layout.
type entry struct {
	rel    *minesweeper.Relation
	vars   []string
	layout Layout
	// broken is set once a broadcast reached only some logs: their
	// buckets then follow two layouts, which no snapshot can render, so
	// the relation refuses writes until a restart repartitions it.
	broken bool
}

// Info describes one cataloged relation.
type Info struct {
	Name   string   `json:"name"`
	Vars   []string `json:"vars"`
	Arity  int      `json:"arity"`
	Tuples int      `json:"tuples"`
	Epoch  uint64   `json:"epoch"`
}

// Catalog is a named, mutable set of relations plus the registered
// prepared-query definitions, safe for concurrent use, held once in
// memory and logged to N logs of R members each. A mutation is durable
// once a live member of each log it needs has accepted its record; a
// member that failed to take a record a sibling accepted is marked down
// and takes no further records until ReopenMember. The in-memory
// relation objects never change identity over member failures and
// reopens. The zero value is not usable; call New, Open or OpenLogs.
type Catalog struct {
	mu      sync.RWMutex
	logs    []*memberLog
	router  Router // nil with one log: every row is log 0's
	rels    map[string]*entry
	queries map[string]storage.QueryDef
}

// New returns an empty catalog over the in-memory backend — the
// historical non-durable behavior.
func New() *Catalog {
	c, err := Open(storage.NewMem())
	if err != nil {
		// The memory backend's recovery cannot fail.
		panic(err)
	}
	return c
}

// Open recovers a one-log catalog from the log's members (see
// OpenLogs).
func Open(members ...storage.Backend) (*Catalog, error) {
	return OpenLogs(nil, members)
}

// OpenLogs recovers a catalog logged to len(logs) logs, log i kept on
// the members logs[i]. Each log recovers and elects among its members
// (see openLog); a relation is the union of the logs' recovered buckets
// — its default binding from the first log holding it, its epoch the
// sum of theirs — built once. Prepared-query definitions come from log
// 0, for the serving layer to re-register (and re-plan) against the
// recovered data; indexes are not persisted.
//
// The router (nil with one log) gives a recovered relation the layout
// it was logged under. A relation without one, or that some log holds
// no bucket of (a crash cut a broadcast short), is re-routed under a
// fresh choice: every log is given its bucket. With one log nothing is
// re-routed, since one bucket holds every row under any layout. Closing
// the members when OpenLogs fails is the caller's job.
func OpenLogs(router Router, logs ...[]storage.Backend) (*Catalog, error) {
	c := &Catalog{
		router:  router,
		rels:    map[string]*entry{},
		queries: map[string]storage.QueryDef{},
	}
	type union struct {
		vars   []string
		tuples [][]int
		epoch  uint64
		held   int // logs holding a bucket
	}
	unions := map[string]*union{}
	for i, members := range logs {
		l, state, err := openLog(members)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.logs = append(c.logs, l)
		for _, rs := range state.Relations {
			if u := unions[rs.Name]; u != nil {
				u.tuples = append(u.tuples, rs.Tuples...)
				u.epoch += rs.Epoch
				u.held++
				continue
			}
			// The first bucket is taken as recovered, uncopied: a later
			// log's rows go past its length, where nothing else reads.
			unions[rs.Name] = &union{rs.Vars, rs.Tuples, rs.Epoch, 1}
		}
		if i == 0 {
			for _, def := range state.Queries {
				c.queries[def.Name] = def
			}
		}
	}
	for name, u := range unions {
		rel, err := minesweeper.NewRelation(name, len(u.vars), u.tuples)
		if err == nil {
			err = rel.RestoreEpoch(u.epoch)
		}
		e := &entry{rel: rel, vars: append([]string(nil), u.vars...)}
		if c.router != nil {
			if l, ok := c.router.Recovered(name); ok && u.held == len(logs) && l.Check(len(u.vars), len(logs)) == nil {
				e.layout = l
			}
		}
		switch {
		case err != nil || e.layout != nil:
		case len(logs) == 1:
			e.layout = c.layoutFor(u.vars, nil)
		default:
			err = c.rewriteLocked(name, e, e.vars, u.tuples, c.layoutFor(u.vars, u.tuples), true)
		}
		if err != nil {
			return nil, fmt.Errorf("catalog: recovering relation %q: %w", name, err)
		}
		c.rels[name] = e
	}
	if err := c.savedLocked(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// checkTuples validates arity and the value domain before a mutation is
// logged: a record must never enter the WAL unless replaying it will
// succeed, and routing indexes rows by a column, so the check the
// Relation mutators apply (rows.Check) runs here first.
func checkTuples(name string, arity int, tuples [][]int) error {
	if err := rows.Check(arity, tuples); err != nil {
		return fmt.Errorf("catalog: relation %q: %w", name, err)
	}
	return nil
}

// checkNew validates the name and default binding of a relation about
// to be created: both non-empty, no variable repeated.
func checkNew(name string, vars []string) error {
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
	return nil
}

// deadLog names log i, left with no live member, in err.
func deadLog(i int, err error) error {
	return fmt.Errorf("shard %d: no healthy replica: %w", i, err)
}

// healthLocked is nil while every log has a live member, else the first
// dead log's read-only error.
func (c *Catalog) healthLocked() error {
	for i, l := range c.logs {
		if err := l.health(); err != nil {
			return deadLog(i, fmt.Errorf("%w (%v)", ErrReadOnly, err))
		}
	}
	return nil
}

// appendLocked logs one record to log i (memberLog.append). A log left
// with no live member names itself in the error, which then wraps
// ErrReadOnly.
func (c *Catalog) appendLocked(i int, rec *storage.Record) error {
	l := c.logs[i]
	err := l.append(rec)
	if err != nil && l.health() != nil {
		return deadLog(i, err)
	}
	return err
}

// split routes a batch of one relation's rows to the logs.
func (c *Catalog) split(l Layout, tuples [][]int) [][][]int {
	if len(c.logs) == 1 {
		return [][][]int{tuples}
	}
	return l.Split(tuples, len(c.logs))
}

// layoutFor picks the layout of a relation's new contents.
func (c *Catalog) layoutFor(vars []string, tuples [][]int) Layout {
	if c.router == nil {
		return nil
	}
	return c.router.Choose(vars, tuples)
}

// savedLocked hands the router every layout after a mutation that may
// have moved one, and returns err, else the router's error.
func (c *Catalog) savedLocked(err error) error {
	if c.router == nil {
		return err
	}
	layouts := make(map[string]Layout, len(c.rels))
	for name, e := range c.rels {
		if !e.broken {
			layouts[name] = e.layout
		}
	}
	if serr := c.router.Save(layouts); err == nil {
		err = serr
	}
	return err
}

// writableLocked finds the relation a mutation names.
func (c *Catalog) writableLocked(name string) (*entry, error) {
	e, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if e.broken {
		return nil, fmt.Errorf("catalog: relation %q is refused writes until a restart repartitions it: a rewrite reached only some shards", name)
	}
	return e, nil
}

// syncEpochLocked fast-forwards the relation's epoch to the sum of its
// logs' epochs. Only a drop that reached some logs leaves the sum
// behind, and an epoch never moves back.
func (c *Catalog) syncEpochLocked(name string, e *entry) {
	var sum uint64
	for _, l := range c.logs {
		sum += l.rels[name].epoch
	}
	if sum > e.rel.Epoch() {
		e.rel.RestoreEpoch(sum)
	}
}

// logBucketsLocked appends one op record per non-empty bucket, each
// stamped with its log's epoch, and returns the rows the logs took:
// tuples, or — after the first refusal, which it returns too — the
// buckets whose logs accepted them, the others cleared.
func (c *Catalog) logBucketsLocked(op storage.Op, name string, tuples [][]int, buckets [][][]int) ([][]int, error) {
	var first error
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := c.appendLocked(i, &storage.Record{Op: op, Name: name, Epoch: c.logs[i].rels[name].epoch, Tuples: b}); err != nil {
			buckets[i] = nil
			if first == nil {
				first = err
			}
		}
	}
	if first == nil {
		return tuples, nil
	}
	var took [][]int
	for _, b := range buckets {
		took = append(took, b...)
	}
	return took, first
}

// broadcastLocked appends to every log i the record rec makes of what
// that log holds of name (nil: nothing to log there). It is refused up
// front while a log has no live member. It reports which logs took
// their record, how many, and the first refusal.
func (c *Catalog) broadcastLocked(name string, rec func(i int, b bucket, held bool) *storage.Record) (took []bool, n int, first error) {
	if err := c.healthLocked(); err != nil {
		return nil, 0, err
	}
	took = make([]bool, len(c.logs))
	for i, l := range c.logs {
		b, held := l.rels[name]
		if r := rec(i, b, held); r != nil {
			if err := c.appendLocked(i, r); err != nil {
				if first == nil {
					first = err
				}
				continue
			}
		}
		took[i] = true
		n++
	}
	return took, n, first
}

// putLocked gives every log its bucket of a relation's new contents: a
// create record to a log holding no bucket of name, else a replace
// stamped with that log's epoch.
func (c *Catalog) putLocked(name string, vars []string, buckets [][][]int) ([]bool, int, error) {
	return c.broadcastLocked(name, func(i int, b bucket, held bool) *storage.Record {
		if held {
			return &storage.Record{Op: storage.OpReplace, Name: name, Epoch: b.epoch, Vars: vars, Tuples: buckets[i]}
		}
		return &storage.Record{Op: storage.OpCreate, Name: name, Vars: vars, Tuples: buckets[i]}
	})
}

// dropRecord is the record dropping a log's bucket of name, if it holds
// one.
func dropRecord(name string, b bucket, held bool) *storage.Record {
	if !held {
		return nil
	}
	return &storage.Record{Op: storage.OpDrop, Name: name, Epoch: b.epoch}
}

// heldLocked rebuilds a relation's rows after a broadcast some logs
// refused: what the logs now durably hold — bucket i of the new rows
// for a log that took its record, its bucket of the current rows
// otherwise (nil new buckets: a drop).
func (c *Catalog) heldLocked(e *entry, took []bool, buckets [][][]int) [][]int {
	old := c.split(e.layout, e.rel.Tuples())
	var held [][]int
	for i, ok := range took {
		switch {
		case !ok:
			held = append(held, old[i]...)
		case buckets != nil:
			held = append(held, buckets[i]...)
		}
	}
	return held
}

// rewriteLocked gives every log its bucket of tuples under l — the
// relation's new contents and binding, or with keep set its current
// rows re-routed — and applies what the logs took: all of it, or
// nothing. When some log refused after another accepted, the relation
// becomes what the logs durably hold (heldLocked) and is broken; its
// binding is the new one if log 0, where recovery reads it, took it.
func (c *Catalog) rewriteLocked(name string, e *entry, vars []string, tuples [][]int, l Layout, keep bool) error {
	buckets := c.split(l, tuples)
	took, n, err := c.putLocked(name, vars, buckets)
	switch {
	case n == 0:
		return err
	case n == len(took):
		if !keep {
			e.rel.Replace(tuples)
		}
		e.layout = l
	case e.layout == nil:
		// Re-routing a recovered relation: opening fails.
		e.broken = true
	default:
		e.rel.Replace(c.heldLocked(e, took, buckets))
		e.broken = true
	}
	if took[0] {
		e.vars = append([]string(nil), vars...)
	}
	c.syncEpochLocked(name, e)
	return err
}

// Create adds a new relation under the given name with the given
// default variable binding (arity = len(vars)) and initial tuples. It
// fails if the name is already taken or the vars repeat.
func (c *Catalog) Create(name string, vars []string, tuples [][]int) (*minesweeper.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.createLocked(name, vars, tuples)
	if err != nil {
		return nil, err
	}
	return e.rel, nil
}

// createLocked is Create with c.mu held. A create some log refused is
// rolled back off the logs that took it; a log that refuses the
// rollback keeps a dangling bucket, which recovery gathers and
// repartitions.
func (c *Catalog) createLocked(name string, vars []string, tuples [][]int) (*entry, error) {
	if err := checkNew(name, vars); err != nil {
		return nil, err
	}
	if _, dup := c.rels[name]; dup {
		return nil, fmt.Errorf("catalog: relation %q already exists", name)
	}
	// Build (and thereby validate) the relation before logging: a
	// record only enters the log if applying it must succeed.
	rel, err := minesweeper.NewRelation(name, len(vars), tuples)
	if err != nil {
		return nil, err
	}
	l := c.layoutFor(vars, tuples)
	took, _, err := c.putLocked(name, vars, c.split(l, tuples))
	if err != nil {
		for i, ok := range took {
			if r := dropRecord(name, c.logs[i].rels[name], ok); r != nil {
				c.appendLocked(i, r)
			}
		}
		return nil, err
	}
	e := &entry{rel: rel, vars: append([]string(nil), vars...), layout: l}
	c.rels[name] = e
	c.syncEpochLocked(name, e)
	c.maybeCompactLocked()
	return e, c.savedLocked(nil)
}

// Get returns the named relation.
func (c *Catalog) Get(name string) (*minesweeper.Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.rels[name]
	if !ok {
		return nil, false
	}
	return e.rel, true
}

// Vars returns the relation's default variable binding.
func (c *Catalog) Vars(name string) ([]string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.rels[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), e.vars...), true
}

// Pin runs f while no mutation is in progress or can land. A run pins
// its plan under it, so that it reads one state the catalog passed
// through.
func (c *Catalog) Pin(f func(View)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f(View{c})
}

// View reads the catalog inside Pin, without taking its lock again.
type View struct{ c *Catalog }

// Get returns the named relation and its layout (nil for a broken
// relation).
func (v View) Get(name string) (*minesweeper.Relation, Layout, bool) {
	e, ok := v.c.rels[name]
	switch {
	case !ok:
		return nil, nil, false
	case e.broken:
		return e.rel, nil, true
	}
	return e.rel, e.layout, true
}

// Insert adds tuples to the named relation, bumping its epoch, and
// returns the relation's post-mutation description. Queries prepared
// against the relation pick up the new tuples on their next execution.
// Catalog mutations run under the catalog's write lock, so the returned
// Info is exactly the state this mutation produced — concurrent
// mutations cannot skew the reported epoch or tuple count.
func (c *Catalog) Insert(name string, tuples ...[]int) (Info, error) {
	_, info, err := c.mutate(storage.OpInsert, name, tuples)
	return info, err
}

// Delete removes every stored copy of each given tuple from the named
// relation, returning how many rows were removed and the post-mutation
// description.
func (c *Catalog) Delete(name string, tuples ...[]int) (int, Info, error) {
	return c.mutate(storage.OpDelete, name, tuples)
}

// mutate is Insert and Delete. Each non-empty bucket of the batch is
// appended to its log before the relation changes — a delete's even
// when nothing ends up removed from it: whether rows match is only
// known after applying, and replaying a no-op delete reproduces the
// same no-op — and then the relation is changed once, by the buckets
// the logs took. A log's epoch moves when its bucket gained a row or
// lost one.
func (c *Catalog) mutate(op storage.Op, name string, tuples [][]int) (int, Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.writableLocked(name)
	if err != nil {
		return 0, Info{}, err
	}
	if err := checkTuples(name, e.rel.Arity(), tuples); err != nil {
		return 0, Info{}, err
	}
	took, err := c.logBucketsLocked(op, name, tuples, c.split(e.layout, tuples))
	var removed [][]int // checkTuples has validated the rows
	if op == storage.OpInsert {
		e.rel.Insert(took...)
	} else {
		removed, _ = e.rel.DeleteRows(took...)
		for i, gone := range c.split(e.layout, removed) {
			c.logs[i].removed(name, len(gone))
		}
	}
	c.syncEpochLocked(name, e)
	if err != nil {
		return 0, Info{}, err
	}
	c.maybeCompactLocked()
	return len(removed), e.describe(name), nil
}

// Replace swaps the named relation's contents, bumping its epoch, and
// returns the post-mutation description.
func (c *Catalog) Replace(name string, tuples [][]int) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.writableLocked(name)
	if err != nil {
		return Info{}, err
	}
	return c.replaceLocked(name, e, e.vars, tuples)
}

// replaceLocked is Replace (with a new default binding) under c.mu.
func (c *Catalog) replaceLocked(name string, e *entry, vars []string, tuples [][]int) (Info, error) {
	if err := checkTuples(name, e.rel.Arity(), tuples); err != nil {
		return Info{}, err
	}
	if err := c.savedLocked(c.rewriteLocked(name, e, vars, tuples, c.layoutFor(vars, tuples), false)); err != nil {
		return Info{}, err
	}
	c.maybeCompactLocked()
	return e.describe(name), nil
}

// Relayout re-routes the relation's rows under l: every log gets its
// bucket, and the rows in memory stay as they are.
func (c *Catalog) Relayout(name string, l Layout) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.writableLocked(name)
	if err != nil {
		return err
	}
	if err := l.Check(e.rel.Arity(), len(c.logs)); err != nil {
		return err
	}
	if err := c.savedLocked(c.rewriteLocked(name, e, e.vars, e.rel.Tuples(), l, true)); err != nil {
		return err
	}
	c.maybeCompactLocked()
	return nil
}

// Drop removes the relation from the catalog. The *Relation value stays
// valid for queries still holding it, but it is no longer reachable by
// name and its name becomes free. If some log refuses the drop after
// another took it, the relation keeps the refusing logs' rows and is
// broken.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.writableLocked(name)
	if err != nil {
		return err
	}
	took, n, first := c.broadcastLocked(name, func(_ int, b bucket, held bool) *storage.Record {
		return dropRecord(name, b, held)
	})
	switch n {
	case 0:
		return first
	case len(took):
		delete(c.rels, name)
		c.maybeCompactLocked()
		return c.savedLocked(nil)
	}
	e.rel.Replace(c.heldLocked(e, took, nil))
	e.broken = true
	c.syncEpochLocked(name, e)
	return c.savedLocked(first)
}

// Len returns the number of cataloged relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.rels)
}

// Names returns the cataloged relation names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Relations returns a snapshot description of every cataloged relation,
// sorted by name. Entries are read entirely under the catalog lock —
// Load's replace path rewrites e.vars under the write lock, so readers
// must not hold slice references past the unlock.
func (c *Catalog) Relations() []Info {
	c.mu.RLock()
	out := make([]Info, 0, len(c.rels))
	for n, e := range c.rels {
		out = append(out, e.describe(n))
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// describe renders the entry as an Info. Callers hold c.mu (read or
// write): the vars copy must happen under the lock.
func (e *entry) describe(name string) Info {
	return Info{
		Name:   name,
		Vars:   append([]string(nil), e.vars...),
		Arity:  e.rel.Arity(),
		Tuples: e.rel.Len(),
		Epoch:  e.rel.Epoch(),
	}
}

// Load reads one relation in the relio interchange format and
// creates-or-replaces it. A new name is created; an existing name of
// the same arity has its contents replaced in place (bumping the epoch,
// so bound prepared queries see the new data) and its default variable
// binding updated. Loading over an existing relation with a different
// arity is an error — drop it first.
func (c *Catalog) Load(r io.Reader, source string) (Info, error) {
	parsed, err := relio.ReadRelation(r, source)
	if err != nil {
		return Info{}, err
	}
	name, vars, tuples := parsed.Name, parsed.Vars, parsed.Tuples
	// Holding c.mu across the whole create-or-replace keeps the load
	// atomic: a concurrent Drop cannot strand the upload on an orphaned
	// relation object, and two concurrent loads of the same new name
	// serialize into create-then-replace instead of one of them failing.
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, exists := c.rels[name]; exists {
		if e.rel.Arity() != len(vars) {
			return Info{}, fmt.Errorf("catalog: relation %q exists with arity %d, load has arity %d (drop it first)",
				name, e.rel.Arity(), len(vars))
		}
		if _, err := c.writableLocked(name); err != nil {
			return Info{}, err
		}
		return c.replaceLocked(name, e, vars, tuples)
	}
	e, err := c.createLocked(name, vars, tuples)
	if err != nil {
		return Info{}, err
	}
	return e.describe(name), nil
}

// Dump writes the named relation in the relio interchange format
// (round-trips through Load).
func (c *Catalog) Dump(w io.Writer, name string) error {
	c.mu.RLock()
	e, ok := c.rels[name]
	var vars []string
	var tuples [][]int
	if ok {
		vars = append([]string(nil), e.vars...)
		tuples = e.rel.Tuples()
	}
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	return relio.WriteRelation(w, &relio.Relation{Name: name, Vars: vars, Tuples: tuples})
}

// Query parses a textual join expression such as "R(A,B), S(B,C)"
// against the catalog's relations.
func (c *Catalog) Query(expr string) (*minesweeper.Query, error) {
	c.mu.RLock()
	rels := make(map[string]*minesweeper.Relation, len(c.rels))
	for n, e := range c.rels {
		rels[n] = e.rel
	}
	c.mu.RUnlock()
	return minesweeper.ParseQuery(expr, rels)
}

// --- prepared-query definitions --------------------------------------

// PutQueryDef stores (or overwrites) a named prepared-query definition,
// logging it to log 0 before the in-memory registry changes so a
// recovered catalog re-registers the same queries.
func (c *Catalog) PutQueryDef(def storage.QueryDef) error {
	if def.Name == "" {
		return fmt.Errorf("catalog: query definition without a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(0, &storage.Record{Op: storage.OpPutQuery, Name: def.Name, Query: &def}); err != nil {
		return err
	}
	c.queries[def.Name] = def
	c.maybeCompactLocked()
	return nil
}

// DropQueryDef removes a named definition. Dropping an absent name is a
// no-op (nothing is logged).
func (c *Catalog) DropQueryDef(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.queries[name]; !ok {
		return nil
	}
	if err := c.appendLocked(0, &storage.Record{Op: storage.OpDropQuery, Name: name}); err != nil {
		return err
	}
	delete(c.queries, name)
	c.maybeCompactLocked()
	return nil
}

// QueryDefs returns the stored prepared-query definitions, sorted by
// name.
func (c *Catalog) QueryDefs() []storage.QueryDef {
	c.mu.RLock()
	out := make([]storage.QueryDef, 0, len(c.queries))
	for _, def := range c.queries {
		out = append(out, def)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- log plumbing -----------------------------------------------------

// maybeCompactLocked lets every log compact the members that ask for it.
func (c *Catalog) maybeCompactLocked() {
	for i, l := range c.logs {
		l.compact(func() *storage.State { return c.stateLocked(i) })
	}
}

// stateLocked renders log i's state: its bucket of every relation under
// the relation's layout (the whole relation with one log), stamped with
// the log's own epochs, plus — on log 0 — the query definitions. Tuple
// rows are shared with the relations (the snapshot writer only reads
// them). It is nil while a broadcast has left buckets that memory cannot
// render: a broken relation, or a dangling bucket of a dropped one.
func (c *Catalog) stateLocked(i int) *storage.State {
	l := c.logs[i]
	if len(l.rels) != len(c.rels) {
		return nil
	}
	st := &storage.State{Relations: make([]storage.RelationState, 0, len(c.rels))}
	for name, e := range c.rels {
		b, ok := l.rels[name]
		if !ok || e.broken {
			return nil
		}
		st.Relations = append(st.Relations, storage.RelationState{
			Name:   name,
			Vars:   append([]string(nil), e.vars...),
			Epoch:  b.epoch,
			Tuples: c.split(e.layout, e.rel.Tuples())[i],
		})
	}
	if i == 0 {
		for _, def := range c.queries {
			st.Queries = append(st.Queries, def)
		}
	}
	return st
}

// Healthy reports whether the catalog can accept mutations: nil while
// every log has a live member, else the first dead log's read-only
// error. It asks the backends directly, so a member that poisoned
// itself outside the append path (a failed explicit Sync, an injected
// fault) counts as failed before the next mutation finds out.
func (c *Catalog) Healthy() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.healthLocked()
}

// Member describes one log member: whether it is the primary, why it
// cannot take records (nil while live), and its backend's counters.
type Member struct {
	Primary bool
	Err     error
	Storage storage.Stats
}

// LogStat describes one log: how many relations it holds a bucket of
// and their rows (counters kept on every append), why it takes no
// records (nil while a member is live), and its members, in order.
type LogStat struct {
	Relations int
	Tuples    int
	Err       error
	Members   []Member
}

// LogStats describes every log, in order.
func (c *Catalog) LogStats() []LogStat {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]LogStat, len(c.logs))
	for i, l := range c.logs {
		out[i] = LogStat{Relations: len(l.rels), Members: make([]Member, len(l.members))}
		for _, b := range l.rels {
			out[i].Tuples += b.tuples
		}
		for j, b := range l.members {
			out[i].Members[j] = Member{Primary: j == l.primary, Err: l.memberErr(j), Storage: b.Stats()}
		}
		if err := l.health(); err != nil {
			out[i].Err = deadLog(i, err)
		}
	}
	return out
}

// Epochs returns the epoch each log's replay reconstructs for the
// relation (0 where a log holds none of it); they sum to its epoch.
func (c *Catalog) Epochs(name string) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, len(c.logs))
	for i, l := range c.logs {
		out[i] = l.rels[name].epoch
	}
	return out
}

// Primary returns the index of log i's primary member.
func (c *Catalog) Primary(i int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.logs[i].primary
}

// Failovers returns how many times a log's primary moved off a failed
// member, summed over the logs.
func (c *Catalog) Failovers() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, l := range c.logs {
		n += l.failovers
	}
	return n
}

// ReopenMember restarts member j of log i on a fresh backend from open
// and compacts the log's state, rendered from memory, into it, so it
// rejoins in sync, as a follower, whatever its log held (see
// memberLog.reopen). Reopening the last failed member of a log leaves
// read-only mode. The catalog stays locked throughout, open included: a
// mutation waits instead of meeting a closed member (which, with one
// member, would fail it), and two reopens never share a directory.
// Nothing in memory is rebuilt, so relation objects and the runs
// reading them are untouched. While a broadcast has left buckets memory
// cannot render, the reopen is refused and the member stays as it is.
func (c *Catalog) ReopenMember(i, j int, open func() (storage.Backend, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.logs) || j < 0 || j >= len(c.logs[i].members) {
		return fmt.Errorf("catalog: no member %d of log %d", j, i)
	}
	st := c.stateLocked(i)
	if st == nil {
		return fmt.Errorf("catalog: log %d holds buckets of a relation a rewrite reached only part of; restart to repartition it", i)
	}
	return c.logs[i].reopen(j, open, st)
}

// Close syncs and releases every member. The catalog must not be
// mutated afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for i, l := range c.logs {
		for _, b := range l.members {
			if err := b.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return first
}

// StorageStats returns the logs' primary-member counters (WAL records
// and bytes, snapshots, recovery outcome): summed over the logs, mode
// and sequence from log 0 — one copy of the data, whatever the member
// count.
func (c *Catalog) StorageStats() storage.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	stats := func(l *memberLog) storage.Stats { return l.members[l.primary].Stats() }
	agg := stats(c.logs[0])
	for _, l := range c.logs[1:] {
		s := stats(l)
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
