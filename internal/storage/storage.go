// Package storage is the serving layer's data plane: it owns the
// durable representation of the catalog — relations, their mutation
// epochs, and named prepared-query definitions — behind a pluggable
// Backend, so the compute plane (the engines, the shaping adapter, the
// catalog's naming layer) never touches a file directly.
//
// Two backends ship:
//
//   - Mem keeps everything in process memory: zero overhead, nothing
//     survives a restart. This is the historical msserve behavior.
//   - Durable pairs an append-only, CRC-checked write-ahead log with
//     periodic full snapshots. Every mutation is framed as one Record
//     and appended to the WAL *before* it is applied in memory; recovery
//     loads the newest snapshot and replays the WAL over it, truncating
//     a torn tail (a record half-written at the moment of a crash)
//     instead of failing. Once the log outgrows the last snapshot the
//     backend compacts: it dumps the full state to a fresh snapshot
//     (written through a temp file and an atomic rename) and rotates to
//     an empty WAL.
//
// The on-disk format is relio-compatible text: tuples are serialized
// exactly as relio tuple lines, variable bindings as relio header
// fields, and record framing lines start with "#!" so a plain relio
// reader skips them as comments. See wal.go for the framing grammar.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"minesweeper/internal/rows"
)

// ErrPoisoned marks a backend whose log tail is no longer trustworthy:
// an append or sync failed partway, so further mutations would risk
// diverging the in-memory state from the durable one. The catalog
// reacts by entering degraded read-only mode; queries keep serving,
// mutations fail until the backend is reopened (or the process
// restarts and recovers).
var ErrPoisoned = errors.New("storage: backend poisoned by a write failure")

// QueryDef is a named prepared-query definition: the textual query and
// the options it was registered with. Definitions persist so that a
// recovered server re-registers — and re-plans against the recovered
// data — every query its clients had prepared.
type QueryDef struct {
	Name    string   `json:"name"`
	Query   string   `json:"query"`
	Engine  string   `json:"engine,omitempty"`
	GAO     []string `json:"gao,omitempty"`
	Workers int      `json:"workers,omitempty"`
	Domain  string   `json:"domain,omitempty"`
	Select  string   `json:"select,omitempty"`
	Where   string   `json:"where,omitempty"`
}

// RelationState is one relation's durable state: its name, default
// variable binding, mutation epoch, and tuples.
type RelationState struct {
	Name   string
	Vars   []string
	Epoch  uint64
	Tuples [][]int
}

// State is a full catalog image: what a snapshot stores and what
// recovery returns. Relations and Queries are sorted by name.
type State struct {
	Relations []RelationState
	Queries   []QueryDef
}

// Op enumerates the mutation record types.
type Op byte

const (
	OpCreate    Op = iota // create a relation (vars + initial tuples; epoch restored from the record)
	OpDrop                // drop a relation
	OpInsert              // append tuples
	OpDelete              // remove every stored copy of each tuple
	OpReplace             // swap contents (and, when Vars is set, the default binding)
	OpPutQuery            // store a prepared-query definition
	OpDropQuery           // remove a prepared-query definition
)

var opNames = map[Op]string{
	OpCreate: "create", OpDrop: "drop", OpInsert: "insert",
	OpDelete: "delete", OpReplace: "replace",
	OpPutQuery: "putquery", OpDropQuery: "dropquery",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one logged mutation. Epoch is the relation's epoch the
// record applies at (its pre-mutation epoch — replay verifies it), or
// the epoch to restore for an OpCreate written by a snapshot.
type Record struct {
	Op     Op
	Name   string
	Epoch  uint64
	Vars   []string  // OpCreate always; OpReplace when the binding changes
	Tuples [][]int   // OpCreate/OpInsert/OpDelete/OpReplace
	Query  *QueryDef // OpPutQuery
}

// Stats reports a backend's counters, served by msserve /stats.
type Stats struct {
	Mode string `json:"mode"` // "memory" or "durable"
	Dir  string `json:"dir,omitempty"`
	// Seq is the current snapshot/WAL generation.
	Seq uint64 `json:"seq,omitempty"`
	// WALRecords / WALBytes describe the live WAL: records appended to
	// it (including those replayed from it at recovery) and its size.
	WALRecords int64 `json:"wal_records,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	// Snapshots counts compactions performed since open; SnapshotBytes
	// is the size of the newest snapshot file.
	Snapshots     int64 `json:"snapshots,omitempty"`
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// Syncs counts explicit fsyncs of the WAL file.
	Syncs int64 `json:"syncs,omitempty"`
	// Recovery outcome: how many relations/queries the last Recover
	// returned, how many WAL records it replayed, and how many torn
	// trailing bytes it truncated.
	RecoveredRelations int   `json:"recovered_relations,omitempty"`
	RecoveredQueries   int   `json:"recovered_queries,omitempty"`
	ReplayedRecords    int64 `json:"replayed_records,omitempty"`
	TruncatedBytes     int64 `json:"truncated_bytes,omitempty"`
	// LastError records the most recent append/compaction failure; the
	// catalog fails soft on compaction errors (the WAL stays
	// authoritative and compaction retries on the next mutation), so
	// this is where that trouble becomes observable.
	LastError string `json:"last_error,omitempty"`
}

// Backend is the pluggable data plane behind the catalog. The catalog
// serializes all calls except Stats, which must be safe to call
// concurrently with the others.
type Backend interface {
	// Recover returns the durably stored catalog state. It is called
	// once, before any Append. The memory backend returns an empty
	// state.
	Recover() (*State, error)
	// Append logs one mutation record. It must make the record durable
	// (to the backend's configured degree) before returning: the caller
	// applies the mutation in memory only after Append succeeds.
	Append(rec *Record) error
	// ShouldCompact reports whether the log has outgrown the last
	// snapshot; the caller then invokes Compact with a full state dump.
	ShouldCompact() bool
	// Compact writes the given full state as a new snapshot and rotates
	// to an empty WAL.
	Compact(state *State) error
	// Sync flushes any buffered log data to stable storage.
	Sync() error
	// Close syncs and releases the backend. The backend is unusable
	// afterwards.
	Close() error
	// Stats returns the backend's counters.
	Stats() Stats
	// Healthy reports whether the backend can still accept appends.
	// A poisoned backend (a write failed partway, see ErrPoisoned)
	// returns the poisoning error; callers use this to distinguish a
	// transient per-record failure from a backend that is done for.
	// Like Stats, it must be safe to call concurrently.
	Healthy() error
}

// sortState normalizes a state for deterministic snapshots and
// comparisons in tests.
func sortState(s *State) {
	sort.Slice(s.Relations, func(i, j int) bool { return s.Relations[i].Name < s.Relations[j].Name })
	sort.Slice(s.Queries, func(i, j int) bool { return s.Queries[i].Name < s.Queries[j].Name })
}

// apply replays one record onto the state, mirroring the catalog's
// mutation semantics exactly — including when a mutation bumps the
// epoch (an insert of at least one tuple, a delete that removes at
// least one row, every replace) — so that replay reproduces the same
// epoch a live relation would have reached. Record.Epoch carries the
// relation's pre-mutation epoch and is verified against the state; a
// mismatch means the log does not describe this state and is reported
// as corruption rather than silently applied.
//
// The state takes the record's rows as they are — rows are immutable
// everywhere, and recovery decodes each record afresh — but never its
// outer Tuples slice, which a later delete filters in place.
func (s *State) apply(rec *Record) error {
	find := func() (int, error) {
		for i := range s.Relations {
			if s.Relations[i].Name == rec.Name {
				return i, nil
			}
		}
		return -1, fmt.Errorf("storage: %s record for unknown relation %q", rec.Op, rec.Name)
	}
	checkEpoch := func(i int) error {
		if s.Relations[i].Epoch != rec.Epoch {
			return fmt.Errorf("storage: %s record for %q stamped epoch %d, relation is at %d",
				rec.Op, rec.Name, rec.Epoch, s.Relations[i].Epoch)
		}
		return nil
	}
	switch rec.Op {
	case OpCreate:
		for i := range s.Relations {
			if s.Relations[i].Name == rec.Name {
				return fmt.Errorf("storage: create record for existing relation %q", rec.Name)
			}
		}
		s.Relations = append(s.Relations, RelationState{
			Name:   rec.Name,
			Vars:   append([]string(nil), rec.Vars...),
			Epoch:  rec.Epoch,
			Tuples: slices.Clone(rec.Tuples),
		})
	case OpDrop:
		i, err := find()
		if err != nil {
			return err
		}
		s.Relations = append(s.Relations[:i], s.Relations[i+1:]...)
	case OpInsert:
		i, err := find()
		if err != nil {
			return err
		}
		if err := checkEpoch(i); err != nil {
			return err
		}
		if len(rec.Tuples) > 0 {
			s.Relations[i].Tuples = append(s.Relations[i].Tuples, rec.Tuples...)
			s.Relations[i].Epoch++
		}
	case OpDelete:
		i, err := find()
		if err != nil {
			return err
		}
		if err := checkEpoch(i); err != nil {
			return err
		}
		// Membership in the record's rows, sorted once, by binary search:
		// no per-row key to allocate however large the relation.
		drop := slices.Clone(rec.Tuples)
		slices.SortFunc(drop, rows.Compare)
		kept := s.Relations[i].Tuples[:0]
		removed := 0
		for _, tup := range s.Relations[i].Tuples {
			if _, hit := slices.BinarySearchFunc(drop, tup, rows.Compare); hit {
				removed++
				continue
			}
			kept = append(kept, tup)
		}
		s.Relations[i].Tuples = kept
		if removed > 0 {
			s.Relations[i].Epoch++
		}
	case OpReplace:
		i, err := find()
		if err != nil {
			return err
		}
		if err := checkEpoch(i); err != nil {
			return err
		}
		s.Relations[i].Tuples = slices.Clone(rec.Tuples)
		if len(rec.Vars) > 0 {
			s.Relations[i].Vars = append([]string(nil), rec.Vars...)
		}
		s.Relations[i].Epoch++
	case OpPutQuery:
		if rec.Query == nil {
			return fmt.Errorf("storage: putquery record without a definition")
		}
		def := *rec.Query
		for i := range s.Queries {
			if s.Queries[i].Name == def.Name {
				s.Queries[i] = def
				return nil
			}
		}
		s.Queries = append(s.Queries, def)
	case OpDropQuery:
		for i := range s.Queries {
			if s.Queries[i].Name == rec.Name {
				s.Queries = append(s.Queries[:i], s.Queries[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("storage: dropquery record for unknown query %q", rec.Name)
	default:
		return fmt.Errorf("storage: unknown record op %d", rec.Op)
	}
	return nil
}

// Mem is the in-memory backend: the historical msserve behavior, now
// expressed as the trivial implementation of Backend. Nothing survives
// a restart; every call is a no-op.
type Mem struct{}

// NewMem returns the in-memory backend.
func NewMem() *Mem { return &Mem{} }

func (*Mem) Recover() (*State, error) { return &State{}, nil }
func (*Mem) Append(*Record) error     { return nil }
func (*Mem) ShouldCompact() bool      { return false }
func (*Mem) Compact(*State) error     { return nil }
func (*Mem) Sync() error              { return nil }
func (*Mem) Close() error             { return nil }
func (*Mem) Stats() Stats             { return Stats{Mode: "memory"} }
func (*Mem) Healthy() error           { return nil }
