// Package catalog is the serving layer's relation store: a versioned,
// mutable collection of named relations that queries are prepared
// against. The catalog owns the naming (Create/Drop) and routes
// mutations (Insert/Delete/Replace) to the underlying
// minesweeper.Relation values, whose epoch counters let every
// PreparedQuery bound through the catalog detect staleness and re-bind
// transparently on its next execution — the mechanism that turns the
// one-shot library into a long-lived service.
//
// Since the data/compute-plane split, the catalog is a thin naming and
// versioning layer over one or more storage.Backend members: every
// mutation — Create, Drop, Insert, Delete, Replace, the Load replace
// path, and the named prepared-query definitions — is framed as a
// storage.Record and appended to the members' logs *before* it touches
// the in-memory relation, so a catalog opened over durable backends
// recovers every relation (tuples, default variable binding, mutation
// epoch) and every query definition after a crash. Replication is a
// property of the log, not of the relations: R members are R logs of
// one in-memory copy. The in-memory behavior is the storage.Mem
// backend; indexes are never persisted — recovery rebuilds them lazily
// through the same epoch machinery that serves live mutations, so the
// warm-path invariants (zero reltree builds on warm re-execution) hold
// identically over both backends.
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
	"reflect"
	"sort"
	"sync"

	"minesweeper"
	"minesweeper/internal/relio"
	"minesweeper/internal/rows"
	"minesweeper/internal/storage"
)

// ErrReadOnly marks a catalog in degraded read-only mode: no log member
// can take records any more (each was poisoned by a write failure or
// left behind by its siblings), so mutations are refused (nothing may
// be applied in memory that is not durably logged first) while reads
// and query execution keep working. The mode is left by reopening a
// member in place (ReopenMember) or a process restart.
var ErrReadOnly = errors.New("catalog: read-only: storage backend is poisoned")

// entry pairs a relation with its default variable binding.
type entry struct {
	rel  *minesweeper.Relation
	vars []string
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
// memory and logged to R storage.Backend members. A mutation is durable
// once at least one live member has accepted its record; a member that
// failed to take a record a sibling accepted is marked down and takes
// no further records until ReopenMember. The in-memory relation objects
// never change identity over member failures and reopens. The zero
// value is not usable; call New or Open.
type Catalog struct {
	mu      sync.RWMutex
	members []storage.Backend
	// down[j] is non-nil once member j missed a record a sibling
	// accepted (the first cause is kept). A member whose backend
	// poisoned itself is down through its own Healthy as well.
	down      []error
	primary   int   // the member whose counters StorageStats reports
	failovers int64 // times primary moved off a failed member
	rels      map[string]*entry
	queries   map[string]storage.QueryDef
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

// Open recovers a catalog from its log members: relations come back
// with their tuples, default variable bindings and mutation epochs;
// prepared-query definitions are available from QueryDefs for the
// serving layer to re-register (and re-plan) against the recovered
// data. Indexes are not persisted — the first execution that needs one
// builds it lazily.
//
// With several members the furthest-along recovered state wins (see
// stateScore) and the relations are built once from it; a member whose
// relation set, epochs or query definitions differ from the winner's
// is brought to it by compacting the winner into its log, or marked
// down if that fails. The primary is the lowest-index live member.
// Closing the members when Open fails is the caller's job.
func Open(members ...storage.Backend) (*Catalog, error) {
	if len(members) == 0 {
		return nil, errors.New("catalog: no storage member")
	}
	states := make([]*storage.State, len(members))
	win := 0
	for j, b := range members {
		st, err := b.Recover()
		if err != nil {
			return nil, fmt.Errorf("catalog: member %d: %w", j, err)
		}
		states[j] = st
		if scoreState(st).beats(scoreState(states[win])) {
			win = j
		}
	}
	state := states[win]
	c := &Catalog{
		members: members,
		down:    make([]error, len(members)),
		rels:    make(map[string]*entry, len(state.Relations)),
		queries: make(map[string]storage.QueryDef, len(state.Queries)),
	}
	for j, st := range states {
		if !inSync(st, state) {
			c.down[j] = members[j].Compact(state)
		}
	}
	for c.primary < len(members)-1 && c.memberErrLocked(c.primary) != nil {
		c.primary++
	}
	for i := range state.Relations {
		rs := &state.Relations[i]
		rel, err := minesweeper.NewRelation(rs.Name, len(rs.Vars), rs.Tuples)
		if err != nil {
			return nil, fmt.Errorf("catalog: recovering relation %q: %w", rs.Name, err)
		}
		if err := rel.RestoreEpoch(rs.Epoch); err != nil {
			return nil, fmt.Errorf("catalog: recovering relation %q: %w", rs.Name, err)
		}
		c.rels[rs.Name] = &entry{rel: rel, vars: append([]string(nil), rs.Vars...)}
	}
	for _, def := range state.Queries {
		c.queries[def.Name] = def
	}
	return c, nil
}

// CheckTuples validates arity and the value domain before a mutation is
// logged: a record must never enter the WAL unless replaying it will
// succeed, so the check the Relation mutators apply (rows.Check) runs
// here first. Exported for internal/shard, which routes tuples by a
// column before any replica sees them.
func CheckTuples(name string, arity int, tuples [][]int) error {
	if err := rows.Check(arity, tuples); err != nil {
		return fmt.Errorf("catalog: relation %q: %w", name, err)
	}
	return nil
}

// CheckNew validates the name and default binding of a relation about
// to be created: both non-empty, no variable repeated.
func CheckNew(name string, vars []string) error {
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

// stateScore ranks a recovered member state for the open-time
// election: epoch sum first (the furthest-along mutation history), then
// relation and tuple counts as tie-breaks so an empty new member
// directory never outranks real data.
type stateScore struct {
	epochs uint64
	rels   int
	tuples int
}

func (s stateScore) beats(o stateScore) bool {
	if s.epochs != o.epochs {
		return s.epochs > o.epochs
	}
	if s.rels != o.rels {
		return s.rels > o.rels
	}
	return s.tuples > o.tuples
}

func scoreState(st *storage.State) stateScore {
	s := stateScore{rels: len(st.Relations)}
	for i := range st.Relations {
		s.epochs += st.Relations[i].Epoch
		s.tuples += len(st.Relations[i].Tuples)
	}
	return s
}

// inSync reports whether a recovered member state already matches the
// elected one: the same relations at the same epochs and the same query
// definitions. Recovered states are sorted by name.
func inSync(st, win *storage.State) bool {
	if len(st.Relations) != len(win.Relations) || len(st.Queries) != len(win.Queries) {
		return false
	}
	for i := range st.Relations {
		if st.Relations[i].Name != win.Relations[i].Name || st.Relations[i].Epoch != win.Relations[i].Epoch {
			return false
		}
	}
	for i := range st.Queries {
		if !reflect.DeepEqual(st.Queries[i], win.Queries[i]) {
			return false
		}
	}
	return true
}

// memberErrLocked reports why member j cannot take records, nil when it
// can: its down marker, else its backend's own health (so out-of-band
// poisoning — a failed explicit Sync, an injected fault — counts too).
func (c *Catalog) memberErrLocked(j int) error {
	if err := c.down[j]; err != nil {
		return err
	}
	return c.members[j].Healthy()
}

// healthLocked is nil while any member is live, else the first
// member's failure.
func (c *Catalog) healthLocked() error {
	var first error
	for j := range c.members {
		err := c.memberErrLocked(j)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// followLocked keeps the primary sticky: only when it cannot take
// records does it move to the next live member, counted as a failover.
func (c *Catalog) followLocked() {
	if c.memberErrLocked(c.primary) == nil {
		return
	}
	for k := 1; k < len(c.members); k++ {
		if j := (c.primary + k) % len(c.members); c.memberErrLocked(j) == nil {
			c.primary = j
			c.failovers++
			return
		}
	}
}

// appendLocked logs one mutation record to every live member; callers
// hold c.mu and apply the mutation in memory only when it returns nil,
// which it does once any member has accepted the record. Members that
// failed to take it are then marked down, since their logs now lack a
// mutation the catalog applies. If no member accepts, nothing is
// applied and no member is blamed: the error is returned as is, or —
// when no live member is left, because each poisoned itself — as
// ErrReadOnly. From then on every mutation is refused with ErrReadOnly
// while reads and query execution continue: the in-memory state is
// exactly the durably logged prefix, so serving it is safe.
func (c *Catalog) appendLocked(rec *storage.Record) error {
	var errs []error // per member, made on the first failure
	var first error
	accepted := false
	for j, b := range c.members {
		if c.memberErrLocked(j) != nil {
			continue
		}
		err := b.Append(rec)
		if err == nil {
			accepted = true
			continue
		}
		if errs == nil {
			errs, first = make([]error, len(c.members)), err
		}
		errs[j] = err
	}
	if !accepted {
		herr := c.healthLocked()
		if herr == nil {
			return first
		}
		if first == nil {
			first = herr // no member was live to try
		}
		return fmt.Errorf("%w (%v)", ErrReadOnly, first)
	}
	for j, err := range errs {
		if err != nil && c.down[j] == nil {
			c.down[j] = err
		}
	}
	c.followLocked()
	return nil
}

// maybeCompactLocked rotates each member's log into a fresh snapshot
// when it has outgrown the previous one. Compaction failure is
// deliberately soft: the mutation that triggered it is already durable
// in the WAL, the backend records the error in its Stats, and the next
// mutation retries.
func (c *Catalog) maybeCompactLocked() {
	var st *storage.State
	for j, b := range c.members {
		if c.down[j] != nil || !b.ShouldCompact() {
			continue
		}
		if st == nil {
			st = c.stateLocked()
		}
		b.Compact(st)
	}
}

// stateLocked renders the full catalog as a storage.State. Tuple rows
// are shared with the relations (the snapshot writer only reads them).
func (c *Catalog) stateLocked() *storage.State {
	st := &storage.State{
		Relations: make([]storage.RelationState, 0, len(c.rels)),
		Queries:   make([]storage.QueryDef, 0, len(c.queries)),
	}
	for name, e := range c.rels {
		st.Relations = append(st.Relations, storage.RelationState{
			Name:   name,
			Vars:   append([]string(nil), e.vars...),
			Epoch:  e.rel.Epoch(),
			Tuples: e.rel.Tuples(),
		})
	}
	for _, def := range c.queries {
		st.Queries = append(st.Queries, def)
	}
	return st
}

// Create adds a new relation under the given name with the given
// default variable binding (arity = len(vars)) and initial tuples. It
// fails if the name is already taken or the vars repeat.
func (c *Catalog) Create(name string, vars []string, tuples [][]int) (*minesweeper.Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, err := c.createLocked(name, vars, tuples)
	if err != nil {
		return nil, err
	}
	c.maybeCompactLocked()
	return rel, nil
}

// createLocked is Create with c.mu held (and without the compaction
// check, so Load composes it with a replace under one lock).
func (c *Catalog) createLocked(name string, vars []string, tuples [][]int) (*minesweeper.Relation, error) {
	if err := CheckNew(name, vars); err != nil {
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
	if err := c.appendLocked(&storage.Record{Op: storage.OpCreate, Name: name, Vars: vars, Tuples: tuples}); err != nil {
		return nil, err
	}
	c.rels[name] = &entry{rel: rel, vars: append([]string(nil), vars...)}
	return rel, nil
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

// Insert adds tuples to the named relation, bumping its epoch, and
// returns the relation's post-mutation description. Queries prepared
// against the relation pick up the new tuples on their next execution.
// Catalog mutations run under the catalog's write lock, so the returned
// Info is exactly the state this mutation produced — concurrent
// mutations cannot skew the reported epoch or tuple count. The record
// is appended to the storage log before the relation changes.
func (c *Catalog) Insert(name string, tuples ...[]int) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.rels[name]
	if !ok {
		return Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := CheckTuples(name, e.rel.Arity(), tuples); err != nil {
		return Info{}, err
	}
	if len(tuples) > 0 {
		if err := c.appendLocked(&storage.Record{
			Op: storage.OpInsert, Name: name, Epoch: e.rel.Epoch(), Tuples: tuples,
		}); err != nil {
			return Info{}, err
		}
	}
	if err := e.rel.Insert(tuples...); err != nil {
		return Info{}, err
	}
	c.maybeCompactLocked()
	return e.describe(name), nil
}

// Delete removes every stored copy of each given tuple from the named
// relation, returning how many rows were removed and the post-mutation
// description.
func (c *Catalog) Delete(name string, tuples ...[]int) (int, Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.rels[name]
	if !ok {
		return 0, Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := CheckTuples(name, e.rel.Arity(), tuples); err != nil {
		return 0, Info{}, err
	}
	if len(tuples) > 0 {
		// Logged even when nothing ends up removed: whether rows match
		// is only known after applying, and replaying a no-op delete
		// reproduces the same no-op (and the same epoch).
		if err := c.appendLocked(&storage.Record{
			Op: storage.OpDelete, Name: name, Epoch: e.rel.Epoch(), Tuples: tuples,
		}); err != nil {
			return 0, Info{}, err
		}
	}
	n, err := e.rel.Delete(tuples...)
	if err != nil {
		return 0, Info{}, err
	}
	c.maybeCompactLocked()
	return n, e.describe(name), nil
}

// Replace swaps the named relation's contents, bumping its epoch, and
// returns the post-mutation description.
func (c *Catalog) Replace(name string, tuples [][]int) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.rels[name]
	if !ok {
		return Info{}, fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := CheckTuples(name, e.rel.Arity(), tuples); err != nil {
		return Info{}, err
	}
	if err := c.appendLocked(&storage.Record{
		Op: storage.OpReplace, Name: name, Epoch: e.rel.Epoch(), Vars: e.vars, Tuples: tuples,
	}); err != nil {
		return Info{}, err
	}
	if err := e.rel.Replace(tuples); err != nil {
		return Info{}, err
	}
	c.maybeCompactLocked()
	return e.describe(name), nil
}

// Drop removes the relation from the catalog. The *Relation value stays
// valid for queries still holding it, but it is no longer reachable by
// name and its name becomes free.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.rels[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := c.appendLocked(&storage.Record{Op: storage.OpDrop, Name: name, Epoch: e.rel.Epoch()}); err != nil {
		return err
	}
	delete(c.rels, name)
	c.maybeCompactLocked()
	return nil
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
// creates-or-replaces it (see CreateOrReplace).
func (c *Catalog) Load(r io.Reader, source string) (Info, error) {
	parsed, err := relio.ReadRelation(r, source)
	if err != nil {
		return Info{}, err
	}
	return c.CreateOrReplace(parsed.Name, parsed.Vars, parsed.Tuples)
}

// CreateOrReplace is Load on parsed rows. A new name is created; an
// existing name of the same arity has its contents replaced in place
// (bumping the epoch, so bound prepared queries see the new data) and
// its default variable binding updated. Loading over an existing
// relation with a different arity is an error — drop it first.
func (c *Catalog) CreateOrReplace(name string, vars []string, tuples [][]int) (Info, error) {
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
		if err := CheckTuples(name, e.rel.Arity(), tuples); err != nil {
			return Info{}, err
		}
		if err := c.appendLocked(&storage.Record{
			Op: storage.OpReplace, Name: name, Epoch: e.rel.Epoch(), Vars: vars, Tuples: tuples,
		}); err != nil {
			return Info{}, err
		}
		if err := e.rel.Replace(tuples); err != nil {
			return Info{}, err
		}
		e.vars = append([]string(nil), vars...)
		c.maybeCompactLocked()
		return e.describe(name), nil
	}
	if _, err := c.createLocked(name, vars, tuples); err != nil {
		return Info{}, err
	}
	c.maybeCompactLocked()
	return c.rels[name].describe(name), nil
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
// logging it before the in-memory registry changes so a recovered
// catalog re-registers the same queries.
func (c *Catalog) PutQueryDef(def storage.QueryDef) error {
	if def.Name == "" {
		return fmt.Errorf("catalog: query definition without a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(&storage.Record{Op: storage.OpPutQuery, Name: def.Name, Query: &def}); err != nil {
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
	if err := c.appendLocked(&storage.Record{Op: storage.OpDropQuery, Name: name}); err != nil {
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

// --- backend plumbing -------------------------------------------------

// Healthy reports whether the catalog can accept mutations: nil while
// any member is live, the first member's failure otherwise. It asks
// the backends directly, so a member that poisoned itself outside the
// append path (a failed explicit Sync, an injected fault) counts as
// failed before the next mutation finds out.
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

// Members describes every log member, in order.
func (c *Catalog) Members() []Member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Member, len(c.members))
	for j, b := range c.members {
		out[j] = Member{Primary: j == c.primary, Err: c.memberErrLocked(j), Storage: b.Stats()}
	}
	return out
}

// Primary returns the index of the primary member.
func (c *Catalog) Primary() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.primary
}

// Failovers returns how many times the primary moved off a failed
// member.
func (c *Catalog) Failovers() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.failovers
}

// ReopenMember restarts member j on a fresh backend. The old backend is
// closed before open runs (two durable backends over one directory
// would fight over its files); the new one is recovered and the
// in-memory state — exactly the mutation prefix the live members hold —
// is compacted into it, so it rejoins in sync, as a follower, whatever
// its log held. Reopening the last failed member leaves read-only mode.
// The catalog stays locked throughout, open included: a mutation waits
// instead of meeting a closed member (which, with one member, would
// fail it), and two reopens never share a directory. Nothing in memory
// is rebuilt, so relation objects and the runs reading them are
// untouched. On failure the member stays down.
func (c *Catalog) ReopenMember(j int, open func() (storage.Backend, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j < 0 || j >= len(c.members) {
		return fmt.Errorf("catalog: no member %d", j)
	}
	c.members[j].Close()
	b, err := open()
	if err == nil {
		if _, err = b.Recover(); err == nil {
			err = b.Compact(c.stateLocked())
		}
		if err != nil {
			b.Close()
		}
	}
	if err != nil {
		if c.down[j] == nil {
			c.down[j] = err
		}
		return err
	}
	c.members[j], c.down[j] = b, nil
	c.followLocked()
	return nil
}

// Close syncs and releases every member. The catalog must not be
// mutated afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, b := range c.members {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StorageStats returns the primary member's counters (WAL records and
// bytes, snapshots, recovery outcome).
func (c *Catalog) StorageStats() storage.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.members[c.primary].Stats()
}
