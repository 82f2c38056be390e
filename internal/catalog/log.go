package catalog

import (
	"errors"
	"fmt"
	"reflect"

	"minesweeper/internal/storage"
)

// memberLog is one record log kept on R storage members: the members,
// which of them are down, the primary whose counters the log reports,
// and — per relation this log holds a bucket of — the epoch its own
// replay reconstructs and the bucket's row count. The catalog's lock
// guards it.
type memberLog struct {
	members []storage.Backend
	// down[j] is non-nil once member j missed a record a sibling
	// accepted (the first cause is kept). A member whose backend
	// poisoned itself is down through its own Healthy as well.
	down      []error
	primary   int   // the member whose counters the log reports
	failovers int64 // times primary moved off a failed member
	rels      map[string]bucket
}

// bucket is what a log holds of one relation: the epoch its replay
// reconstructs (storage.State.apply's rules) and how many rows.
type bucket struct {
	epoch  uint64
	tuples int
}

// openLog recovers a log from its members. The furthest-along recovered
// state wins (see stateScore); a member whose relation set, epochs or
// query definitions differ from the winner's is brought to it by
// compacting the winner into its log, or marked down if that fails. The
// primary is the lowest-index live member. The winner is returned for
// the catalog to build its relations from.
func openLog(members []storage.Backend) (*memberLog, *storage.State, error) {
	if len(members) == 0 {
		return nil, nil, errors.New("catalog: no storage member")
	}
	states := make([]*storage.State, len(members))
	win := 0
	for j, b := range members {
		st, err := b.Recover()
		if err != nil {
			return nil, nil, fmt.Errorf("catalog: member %d: %w", j, err)
		}
		states[j] = st
		if scoreState(st).beats(scoreState(states[win])) {
			win = j
		}
	}
	state := states[win]
	l := &memberLog{
		members: members,
		down:    make([]error, len(members)),
		rels:    make(map[string]bucket, len(state.Relations)),
	}
	for j, st := range states {
		if !inSync(st, state) {
			l.down[j] = members[j].Compact(state)
		}
	}
	for l.primary < len(members)-1 && l.memberErr(l.primary) != nil {
		l.primary++
	}
	for _, rs := range state.Relations {
		l.rels[rs.Name] = bucket{rs.Epoch, len(rs.Tuples)}
	}
	return l, state, nil
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

// memberErr reports why member j cannot take records, nil when it can:
// its down marker, else its backend's own health (so out-of-band
// poisoning — a failed explicit Sync, an injected fault — counts too).
func (l *memberLog) memberErr(j int) error {
	if err := l.down[j]; err != nil {
		return err
	}
	return l.members[j].Healthy()
}

// health is nil while any member is live, else the first member's
// failure.
func (l *memberLog) health() error {
	var first error
	for j := range l.members {
		err := l.memberErr(j)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// follow keeps the primary sticky: only when it cannot take records
// does it move to the next live member, counted as a failover.
func (l *memberLog) follow() {
	if l.memberErr(l.primary) == nil {
		return
	}
	for k := 1; k < len(l.members); k++ {
		if j := (l.primary + k) % len(l.members); l.memberErr(j) == nil {
			l.primary = j
			l.failovers++
			return
		}
	}
}

// append logs one record to every live member and returns nil once any
// member has accepted it; the caller then applies the mutation in
// memory. Members that failed to take it are then marked down, since
// their logs now lack a record the catalog applies. If no member
// accepts, nothing may be applied and no member is blamed: the error is
// returned as is, or — when no live member is left, because each
// poisoned itself — as ErrReadOnly. An accepted record moves the log's
// bucket of its relation as replay will (see logged).
func (l *memberLog) append(rec *storage.Record) error {
	var errs []error // per member, made on the first failure
	var first error
	accepted := false
	for j, b := range l.members {
		if l.memberErr(j) != nil {
			continue
		}
		err := b.Append(rec)
		if err == nil {
			accepted = true
			continue
		}
		if errs == nil {
			errs, first = make([]error, len(l.members)), err
		}
		errs[j] = err
	}
	if !accepted {
		herr := l.health()
		if herr == nil {
			return first
		}
		if first == nil {
			first = herr // no member was live to try
		}
		return fmt.Errorf("%w (%v)", ErrReadOnly, first)
	}
	for j, err := range errs {
		if err != nil && l.down[j] == nil {
			l.down[j] = err
		}
	}
	l.follow()
	l.logged(rec)
	return nil
}

// logged moves the log's bucket of rec's relation as
// storage.State.apply replays rec: a create sets it, a replace bumps
// its epoch, an insert (only non-empty ones are logged) bumps it and
// adds rows, a drop removes it. A delete's effect is known only once it
// is applied: see removed.
func (l *memberLog) logged(rec *storage.Record) {
	b := l.rels[rec.Name]
	switch rec.Op {
	case storage.OpCreate:
		l.rels[rec.Name] = bucket{rec.Epoch, len(rec.Tuples)}
	case storage.OpReplace:
		l.rels[rec.Name] = bucket{b.epoch + 1, len(rec.Tuples)}
	case storage.OpInsert:
		l.rels[rec.Name] = bucket{b.epoch + 1, b.tuples + len(rec.Tuples)}
	case storage.OpDrop:
		delete(l.rels, rec.Name)
	}
}

// removed notes that a logged delete removed n rows of the log's bucket
// of name; replay bumps its epoch when n > 0.
func (l *memberLog) removed(name string, n int) {
	if b := l.rels[name]; n > 0 {
		l.rels[name] = bucket{b.epoch + 1, b.tuples - n}
	}
}

// compact rotates each live member's log into a fresh snapshot when it
// has outgrown the previous one. The snapshot is rendered only when a
// member asks for one, once; render returns nil while the log's state
// cannot be rendered from memory, and then nothing compacts. Compaction
// failure is deliberately soft: the mutation that triggered it is
// already durable in the WAL, the backend records the error in its
// Stats, and the next mutation retries.
func (l *memberLog) compact(render func() *storage.State) {
	var st *storage.State
	for j, b := range l.members {
		if l.down[j] != nil || !b.ShouldCompact() {
			continue
		}
		if st == nil {
			if st = render(); st == nil {
				return
			}
		}
		b.Compact(st)
	}
}

// reopen restarts member j on a fresh backend from open: the old
// backend is closed first (two durable backends over one directory
// would fight over its files), the new one is recovered, and state —
// exactly the record prefix the live members hold — is compacted into
// it, so it rejoins in sync, as a follower, whatever its log held. On
// failure the member stays down.
func (l *memberLog) reopen(j int, open func() (storage.Backend, error), state *storage.State) error {
	l.members[j].Close()
	b, err := open()
	if err == nil {
		if _, err = b.Recover(); err == nil {
			err = b.Compact(state)
		}
		if err != nil {
			b.Close()
		}
	}
	if err != nil {
		if l.down[j] == nil {
			l.down[j] = err
		}
		return err
	}
	l.members[j], l.down[j] = b, nil
	l.follow()
	return nil
}
