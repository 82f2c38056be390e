// Package minesweeper is a Go implementation of the Minesweeper join
// algorithm from "Beyond Worst-case Analysis for Joins with Minesweeper"
// (Ngo, Nguyen, Ré, Rudra — PODS 2014). Minesweeper evaluates natural
// joins over ordered indexes in time proportional to the instance's
// certificate complexity |C| — a per-instance difficulty measure that can
// be far below the input size — plus the output size: Õ(|C| + Z) for
// β-acyclic queries under a nested elimination order, Õ(|C|^{w+1} + Z)
// for global attribute orders of elimination width w, and Õ(|C|^{3/2}+Z)
// for the triangle query via a specialized dyadic constraint store.
//
// The package also ships the classical comparison algorithms (Yannakakis,
// Leapfrog Triejoin, NPRR-style generic join, pairwise hash plans) behind
// the same API, the acyclicity/width theory needed to pick good attribute
// orders, wrappers for the paper's set-intersection and bow-tie queries
// (plain queries on the general engine), and the specialized
// dyadic-CDS solver for the triangle query.
//
// Quick start:
//
//	r, _ := minesweeper.NewRelation("R", 2, [][]int{{1, 2}, {2, 3}})
//	s, _ := minesweeper.NewRelation("S", 2, [][]int{{2, 5}, {3, 7}})
//	q, _ := minesweeper.NewQuery(
//		minesweeper.Atom{Rel: r, Vars: []string{"A", "B"}},
//		minesweeper.Atom{Rel: s, Vars: []string{"B", "C"}},
//	)
//	res, _ := minesweeper.Execute(q, nil)
//	// res.Tuples over res.Vars (the GAO), res.Stats has |C| estimates.
//
// Every engine runs behind the streaming executor layer: ExecuteStream
// exposes the anytime, one-tuple-at-a-time behaviour, ExecuteLimit stops
// after k tuples, and the Context variants honor cancellation and
// deadlines uniformly across engines. For repeated execution over the
// same relations, Prepare builds the GAO-permuted indexes once and
// caches them on the relations (keyed by column order), so re-running a
// query — or running another query that indexes the same relation the
// same way — skips the index build entirely.
package minesweeper

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"minesweeper/internal/baseline"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/hypergraph"
	"minesweeper/internal/ordered"
	"minesweeper/internal/planner"
)

// Stats carries the per-run cost counters of the certificate-complexity
// analysis: FindGap calls (the paper's empirical |C| proxy), probe
// points, constraints inserted, CDS work, comparisons, and output count.
type Stats = certificate.Stats

// Atom binds a relation's columns to query variables. A Vars entry that
// is a non-negative integer literal (e.g. "7" in R(x, 7)) is a constant
// selection on that column rather than a variable: it is pushed down
// into the index walk as a pre-ruled-out gap in the constraint store, so
// the engines skip the unselected region instead of filtering after the
// join. Constants never join across atoms and do not appear in
// Query.Vars or the output.
type Atom struct {
	Rel  *Relation
	Vars []string
}

// constName builds the internal variable name of a constant column.
// Names start with '#', which no user identifier can, so they can never
// collide with query variables.
func constName(atom, col int) string { return fmt.Sprintf("#c%d_%d", atom, col) }

// hiddenConst is one constant selection: the internal GAO attribute
// standing in for the constant column, and the value it is pinned to.
type hiddenConst struct {
	name string
	val  int
}

// Query is a natural join query: the join of its atoms on shared
// variables, optionally shaped by a projection list, per-variable range
// filters and aggregates (set by ParseQuery's select/where clauses, or
// per execution through Options).
type Query struct {
	atoms  []Atom
	vars   []string
	hidden []hiddenConst
	hg     *hypergraph.Hypergraph

	// Shaping clauses parsed from the query text (ParseQuery); nil when
	// absent. Options fields, when set, take precedence at Prepare.
	sel   []string
	where []Filter
	aggs  []Aggregate
}

// NewQuery validates the atoms and derives the query hypergraph.
// Constant columns (integer-literal Vars entries) are rewritten to
// hidden equality-bound attributes; every atom must keep at least one
// real variable.
func NewQuery(atoms ...Atom) (*Query, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("minesweeper: query needs at least one atom")
	}
	q := &Query{}
	seen := map[string]bool{}
	edges := make([][]string, len(atoms))
	for i, a := range atoms {
		if a.Rel == nil {
			return nil, fmt.Errorf("minesweeper: atom %d has nil relation", i)
		}
		if len(a.Vars) != a.Rel.Arity() {
			return nil, fmt.Errorf("minesweeper: atom %d binds %d vars to %d-ary relation %q",
				i, len(a.Vars), a.Rel.Arity(), a.Rel.Name())
		}
		vars := append([]string(nil), a.Vars...)
		var real []string
		dup := map[string]bool{}
		for j, v := range vars {
			if c, ok := parseConstant(v); ok {
				if c < 0 || c >= ordered.PosInf {
					return nil, fmt.Errorf("minesweeper: atom %d column %d: constant %q out of domain [0, %d)",
						i, j, v, ordered.PosInf)
				}
				name := constName(i, j)
				q.hidden = append(q.hidden, hiddenConst{name: name, val: c})
				vars[j] = name
				continue
			}
			if !validVarName(v) {
				return nil, fmt.Errorf("minesweeper: atom %d column %d: %q is neither a variable nor a non-negative integer constant", i, j, v)
			}
			if dup[v] {
				return nil, fmt.Errorf("minesweeper: atom %d repeats variable %q", i, v)
			}
			dup[v] = true
			real = append(real, v)
			if !seen[v] {
				seen[v] = true
				q.vars = append(q.vars, v)
			}
		}
		if len(real) == 0 {
			return nil, fmt.Errorf("minesweeper: atom %d (%s) binds only constants; every atom needs at least one variable",
				i, a.Rel.Name())
		}
		// The hypergraph ranges over the real variables only: constants
		// are selections, not join structure, so acyclicity and width
		// are those of the residual query.
		edges[i] = real
		q.atoms = append(q.atoms, Atom{Rel: a.Rel, Vars: vars})
	}
	q.hg = hypergraph.New(edges)
	return q, nil
}

// validVarName reports whether s is a legal variable name: an
// identifier (letter or underscore, then letters, digits or
// underscores). Names starting with a digit are constants; anything
// else is rejected so constants and variables stay unambiguous.
func validVarName(s string) bool {
	for i, r := range s {
		if i == 0 {
			if !isIdentStart(r) {
				return false
			}
			continue
		}
		if !isIdentRune(r) {
			return false
		}
	}
	return s != ""
}

// parseConstant reports whether the Vars entry denotes an integer
// constant (a non-empty all-digit string; identifiers cannot start with
// a digit, so the forms are disjoint).
func parseConstant(s string) (int, bool) {
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Vars returns all query variables in order of first appearance.
// Constant columns are not variables and are excluded. This is the
// column order of executed results and streamed tuples (unless a
// projection narrows it); the evaluation order may differ — see
// Result.GAO.
func (q *Query) Vars() []string { return append([]string(nil), q.vars...) }

// Select returns the query's parsed projection list (nil when the query
// text had no select clause).
func (q *Query) Select() []string { return append([]string(nil), q.sel...) }

// Where returns the query's parsed range filters (nil when the query
// text had no where clause).
func (q *Query) Where() []Filter { return append([]Filter(nil), q.where...) }

// Aggregates returns the query's parsed aggregate outputs (nil when the
// query text had none).
func (q *Query) Aggregates() []Aggregate { return append([]Aggregate(nil), q.aggs...) }

// extendGAO prepends the hidden constant attributes to a GAO over the
// real variables, yielding the internal evaluation order. Constants
// lead: each contributes exactly one value, so the order over the real
// variables is untouched, while the index walks restrict to the
// selected region at their outermost levels — where it prunes most.
func (q *Query) extendGAO(gao []string) []string {
	if len(q.hidden) == 0 {
		return gao
	}
	ext := make([]string, 0, len(q.hidden)+len(gao))
	for _, h := range q.hidden {
		ext = append(ext, h.name)
	}
	return append(ext, gao...)
}

// Relations returns the distinct relations the query binds, in order of
// first appearance (self-joins contribute one entry). Long-lived
// callers use this to check that the relations a query was built over
// are still the ones a catalog serves under those names.
func (q *Query) Relations() []*Relation {
	seen := map[*Relation]bool{}
	var out []*Relation
	for _, a := range q.atoms {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// Atoms returns a copy of the query's atoms as validated: constant
// columns appear rewritten to their hidden attribute names (which start
// with '#', so they can never collide with query variables). The shard
// layer inspects these bindings to find an atom whose partition column
// is bound to the leading GAO attribute.
func (q *Query) Atoms() []Atom {
	out := make([]Atom, len(q.atoms))
	for i, a := range q.atoms {
		out[i] = Atom{Rel: a.Rel, Vars: append([]string(nil), a.Vars...)}
	}
	return out
}

// IsAlphaAcyclic reports α-acyclicity (GYO-reducible; Yannakakis applies).
func (q *Query) IsAlphaAcyclic() bool { return q.hg.IsAlphaAcyclic() }

// IsBetaAcyclic reports β-acyclicity: every sub-hypergraph α-acyclic;
// exactly the class for which Minesweeper achieves Õ(|C|+Z)
// (Theorem 2.7 / Proposition 2.8).
func (q *Query) IsBetaAcyclic() bool { return q.hg.IsBetaAcyclic() }

// NestedEliminationOrder returns a GAO whose prefix posets are chains
// (Definition A.5), which exists iff the query is β-acyclic.
func (q *Query) NestedEliminationOrder() ([]string, bool) {
	return q.hg.NestedEliminationOrder()
}

// EliminationWidth returns the elimination width of the given GAO; the
// Minesweeper bound for that order is Õ(|C|^{w+1} + Z) (Theorem 5.1).
func (q *Query) EliminationWidth(gao []string) (int, error) {
	return q.hg.EliminationWidth(gao)
}

// Treewidth returns the query's treewidth, computed exactly by exhaustive
// elimination-order search (Proposition A.7). Limited to queries with at
// most 9 variables; use RecommendGAO's width for larger ones.
func (q *Query) Treewidth() (int, error) { return q.hg.Treewidth() }

// RecommendGAO returns the purely structural global attribute order: a
// nested elimination order when the query is β-acyclic (width reported
// by its elimination width), otherwise the greedy min-width order. The
// choice is deterministic — equal-width ties break lexicographically —
// and depends only on the query's hypergraph, never on the data.
//
// Execute and Prepare no longer use this order directly when none is
// supplied: they run the data-aware planner, which costs
// width-feasible orders from per-column statistics and falls back to
// this structural order on ties. Use Options.GAO to force any order,
// and Query.Explain or PreparedQuery.Explain to see what the planner
// chose and why.
func (q *Query) RecommendGAO() (gao []string, width int) {
	if neo, ok := q.hg.NestedEliminationOrder(); ok {
		w, err := q.hg.EliminationWidth(neo)
		if err != nil {
			panic(err) // unreachable: neo is a permutation of the query vars
		}
		return neo, w
	}
	return q.hg.GreedyWidthOrder()
}

// plannerAtoms renders the query's atoms for the cost-based planner:
// real variables only (constant columns are selections, not order
// choices), with the cached per-column statistics of each bound
// relation.
func (q *Query) plannerAtoms() []planner.Atom {
	atoms := make([]planner.Atom, 0, len(q.atoms))
	for _, a := range q.atoms {
		st := a.Rel.ColStats()
		pa := planner.Atom{Rows: st.Rows}
		for j, v := range a.Vars {
			if strings.HasPrefix(v, "#") {
				continue // hidden constant column
			}
			pa.Attrs = append(pa.Attrs, v)
			pa.Cols = append(pa.Cols, st.Cols[j])
		}
		atoms = append(atoms, pa)
	}
	return atoms
}

// Engine selects the join algorithm.
type Engine int

const (
	// EngineAuto picks Minesweeper with a recommended GAO.
	EngineAuto Engine = iota
	// EngineMinesweeper is the paper's algorithm (Algorithm 2).
	EngineMinesweeper
	// EngineLeapfrog is the Leapfrog Triejoin baseline [53].
	EngineLeapfrog
	// EngineNPRR is the generic worst-case-optimal join baseline [40].
	EngineNPRR
	// EngineYannakakis is Yannakakis's algorithm [55] (α-acyclic only).
	EngineYannakakis
	// EngineHashPlan is a left-deep pairwise hash-join plan.
	EngineHashPlan
)

// ParseEngine resolves an engine name as printed by Engine.String
// ("auto", "minesweeper", "leapfrog", "nprr", "yannakakis",
// "hashplan"). The empty string parses as EngineAuto. This is the one
// authoritative name table for CLI flags and service parameters.
func ParseEngine(name string) (Engine, error) {
	if name == "" {
		return EngineAuto, nil
	}
	for _, e := range []Engine{EngineAuto, EngineMinesweeper, EngineLeapfrog, EngineNPRR, EngineYannakakis, EngineHashPlan} {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("minesweeper: unknown engine %q", name)
}

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineMinesweeper:
		return "minesweeper"
	case EngineLeapfrog:
		return "leapfrog"
	case EngineNPRR:
		return "nprr"
	case EngineYannakakis:
		return "yannakakis"
	case EngineHashPlan:
		return "hashplan"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// DictMode controls the per-attribute order-preserving dictionary: an
// optional rank encoding of attribute values into the contiguous range
// [0, n) applied before index build and decoded on emit. Rank encoding
// is strictly monotone, so every engine produces identical results on
// encoded and raw values; what changes is domain density — sparse,
// skewed domains fragment the constraint store into many tiny
// ruled-out intervals that collapse into few wide gaps under dense
// codes.
type DictMode int

const (
	// DictAuto (the default) encodes exactly the attributes whose
	// statistics mark them sparse: value span well beyond the distinct
	// count. Dense domains are left raw, so typical integer-key data
	// pays nothing.
	DictAuto DictMode = iota
	// DictOff disables dictionary encoding.
	DictOff
	// DictOn encodes every (non-constant) attribute.
	DictOn
)

// DomainOrder selects the code-space ordering of dictionary-encoded
// attributes — the data-driven domain permutation of the box-cover /
// domain-ordering line of work generalizing PR 5's rank encodings.
type DomainOrder int

const (
	// DomainNatural (the default) keeps every dictionary
	// order-preserving: codes follow value order, emitted tuples are
	// GAO-lexicographic in raw values, and range bounds push down into
	// code space.
	DomainNatural DomainOrder = iota
	// DomainFreq re-permutes the code space of attributes the planner's
	// skew sketch marks heavy-hitter-dominated: codes follow descending
	// frequency (ties by value), so the values that join most cluster at
	// adjacent codes and their rule-outs coalesce into few wide gaps and
	// boxes. The permutation applies only to attributes without
	// pushed-down range bounds (a permuted code space has no contiguous
	// bound image) and is deterministic, so repeated runs — and all
	// engines, which share the encoded indexes — agree exactly.
	//
	// Trade-off: tuples stream in permuted-domain order on the affected
	// attributes (still a deterministic total order, identical across
	// engines and worker counts, but not raw value order). Explain's
	// DictOrders field reports the discipline actually applied per
	// attribute.
	DomainFreq
)

// ParseDomainOrder resolves a domain-order name as printed by
// DomainOrder.String ("natural", "freq"); the empty string parses as
// DomainNatural. The one authoritative name table for CLI flags and
// service parameters, like ParseEngine.
func ParseDomainOrder(name string) (DomainOrder, error) {
	switch name {
	case "", "natural":
		return DomainNatural, nil
	case "freq":
		return DomainFreq, nil
	}
	return 0, fmt.Errorf("minesweeper: unknown domain order %q", name)
}

func (d DomainOrder) String() string {
	switch d {
	case DomainNatural:
		return "natural"
	case DomainFreq:
		return "freq"
	}
	return fmt.Sprintf("domainorder(%d)", int(d))
}

// Options configures Execute. The zero value (or nil) means: planned
// GAO, Minesweeper engine, sequential, auto dictionary encoding, full
// output (no projection, filters or aggregates beyond those parsed into
// the query itself).
type Options struct {
	Engine Engine
	// GAO fixes the global attribute order (a permutation of the query's
	// variables). Empty means the data-aware planner chooses (see
	// Query.Explain); forcing a GAO bypasses planning entirely.
	GAO []string
	// Dict controls per-attribute dictionary (dense-domain) encoding.
	Dict DictMode
	// Domain opts skewed attributes into frequency-permuted code spaces
	// (see DomainFreq). Ignored under DictOff — domain permutations ride
	// on the dictionary machinery.
	Domain DomainOrder
	// Workers > 1 runs Minesweeper or Leapfrog on that many goroutines over
	// about 4·Workers range morsels of the first GAO attribute not pinned
	// by a constant, emitted in order, so the stream is a sequential run's
	// and its first tuple waits for one morsel. Other engines ignore it.
	Workers int
	// Debug enables internal soundness checks (slower): Minesweeper
	// fails a run whose probe point no discovered gap covers, or whose
	// stream does not ascend strictly in GAO-lex order.
	Debug bool
	// Select projects the output onto the given variables, in order,
	// under set semantics (dropped columns never produce duplicate
	// rows). nil keeps every variable; with Aggregates set it is the
	// group-by list, and an empty non-nil list aggregates the whole
	// result as one group. When nil, the query's own parsed select
	// clause (if any) applies.
	Select []string
	// Where conjoins per-variable range filters, pushed down into the
	// engines' index walks (Minesweeper seeds them into the constraint
	// store as pre-ruled-out gaps, so run cost tracks selectivity).
	// When nil, the query's own parsed where clause (if any) applies.
	Where []Filter
	// Aggregates computes grouped aggregates (grouped by Select) instead
	// of returning tuples. When nil, the query's own parsed aggregates
	// (if any) apply.
	Aggregates []Aggregate
}

// Result is a join result.
//
// Invariants: Vars is the output column order — the projection list if
// one applies, otherwise Query.Vars (first-appearance order), plus one
// labelled column per aggregate. GAO is the evaluation order actually
// used, which may be a different permutation: Tuples are emitted and
// sorted GAO-lexicographically (aggregate rows sort by group key), so
// rows are NOT generally sorted by their visible column order unless
// Vars and GAO coincide. Stats.Outputs counts the raw join tuples the
// engine discovered; under projection or aggregation this can exceed
// len(Tuples).
type Result struct {
	Vars   []string
	Tuples [][]int
	Stats  Stats
	GAO    []string
	Engine Engine
}

// Execute evaluates the query and returns its full result.
func Execute(q *Query, opts *Options) (*Result, error) {
	return ExecuteContext(context.Background(), q, opts)
}

// ExecuteContext evaluates the query and returns its full result,
// stopping with ctx.Err() when the context is cancelled or its deadline
// passes. On such an early stop the tuples collected so far are
// returned alongside the non-nil error (a non-nil partial *Result whose
// Tuples are a prefix of the full GAO-ordered result); only preparation
// failures return a nil Result. The query is prepared first, so
// repeated executions over the same relations reuse the cached indexes.
func ExecuteContext(ctx context.Context, q *Query, opts *Options) (*Result, error) {
	pq, err := q.Prepare(opts)
	if err != nil {
		return nil, err
	}
	return pq.ExecuteContext(ctx)
}

// ExecuteLimit evaluates the query but stops after at most limit output
// tuples — the anytime behaviour of probe-point-driven evaluation: with
// a streaming engine the first k results cost only the probes that found
// them. Every engine honors the limit through the streaming executor;
// for the materializing engines (Yannakakis, hash plan) it bounds the
// returned tuples but not the evaluation work. The returned tuples are
// the k GAO-lexicographically smallest, identical across engines.
//
// A negative limit means unlimited (equivalent to Execute); limit 0
// returns an empty result without evaluating. The same convention holds
// across PreparedQuery.ExecuteLimit*, msserve's limit parameter and
// msjoin's -limit flag.
func ExecuteLimit(q *Query, opts *Options, limit int) (*Result, error) {
	return ExecuteLimitContext(context.Background(), q, opts, limit)
}

// ExecuteLimitContext is ExecuteLimit with cancellation. Like
// ExecuteContext, cancellation mid-run returns the partial result
// collected so far alongside the error.
func ExecuteLimitContext(ctx context.Context, q *Query, opts *Options, limit int) (*Result, error) {
	pq, err := q.Prepare(opts)
	if err != nil {
		return nil, err
	}
	return pq.ExecuteLimitContext(ctx, limit)
}

// ExecuteStream evaluates the query, calling yield once per output tuple
// as the engine discovers it. Tuples arrive in GAO-lexicographic
// discovery order, but their columns are presented in output order —
// Query.Vars (first appearance) or the projection list — exactly like
// Result.Tuples; use Prepare and PreparedQuery.GAO/OutputVars to
// inspect both orders. yield returns false to stop the enumeration
// early (the call then returns nil error). The returned Stats cover the
// work actually performed. Aggregate queries yield their group rows
// only after the evaluation completes.
func ExecuteStream(q *Query, opts *Options, yield func([]int) bool) (Stats, error) {
	return ExecuteStreamContext(context.Background(), q, opts, yield)
}

// ExecuteStreamContext is ExecuteStream with cancellation: a cancelled
// or expired context stops the evaluation with ctx.Err().
func ExecuteStreamContext(ctx context.Context, q *Query, opts *Options, yield func([]int) bool) (Stats, error) {
	pq, err := q.Prepare(opts)
	if err != nil {
		return Stats{}, err
	}
	return pq.StreamContext(ctx, yield)
}

// atomSpecs renders the query's atoms as core specs with unique names
// (used by the certificate machinery, which indexes outside the cache).
// Attribute lists include the hidden constant attributes; pair with
// extendGAO.
func (q *Query) atomSpecs() []core.AtomSpec {
	specs := make([]core.AtomSpec, len(q.atoms))
	for i, a := range q.atoms {
		specs[i] = core.AtomSpec{Name: fmt.Sprintf("%s#%d", a.Rel.Name(), i), Attrs: a.Vars, Tuples: a.Rel.Tuples()}
	}
	return specs
}

// Intersect computes the intersection of the given integer sets as the
// query S1(A) ⋈ … ⋈ Sm(A) on the general engine. The query is
// β-acyclic, so the run is Õ(|C| + Z) (Theorem 2.7), the bound of the
// paper's special-case Algorithm 8 (Theorem H.4): disjoint blocks cost
// O(1) probes whatever the set sizes. The returned stats include the
// FindGap count, the paper's certificate-size estimate.
//
// Sets may be unsorted and hold duplicates; the result is the sorted
// distinct intersection. At least one set is required: the intersection
// of zero sets is the whole (unbounded) domain, which cannot be
// materialized, so Intersect() — and Intersect(nil...) with an empty
// slice — returns an error. A present-but-empty set is fine and yields
// an empty intersection.
func Intersect(sets ...[]int) ([]int, Stats, error) {
	if len(sets) == 0 {
		return nil, Stats{}, fmt.Errorf("minesweeper: Intersect needs at least one set (the empty intersection is the whole domain)")
	}
	atoms := make([]Atom, len(sets))
	for i, s := range sets {
		var err error
		if atoms[i], err = setAtom(fmt.Sprintf("S%d", i+1), "A", s); err != nil {
			return nil, Stats{}, err
		}
	}
	q, err := NewQuery(atoms...)
	if err != nil {
		return nil, Stats{}, err
	}
	var out []int
	stats, err := ExecuteStream(q, nil, func(t []int) bool {
		out = append(out, t[0])
		return true
	})
	return out, stats, err
}

// BowtieJoin computes the bow-tie query R(X) ⋈ S(X,Y) ⋈ T(Y) of
// Appendix I on the general engine under the GAO [X Y], so the pairs
// come in lexicographic (x, y) order. [X Y] is a nested elimination
// order, so the run is Õ(|C| + Z) (Theorem 2.7), the bound of the
// paper's special-case Algorithm 9 (Theorem I.4). s rows are (x, y)
// pairs; any input may be unsorted and hold duplicates.
func BowtieJoin(r []int, s [][]int, t []int) ([][]int, Stats, error) {
	rAtom, err := setAtom("R", "X", r)
	if err != nil {
		return nil, Stats{}, err
	}
	sRel, err := NewRelation("S", 2, s)
	if err != nil {
		return nil, Stats{}, err
	}
	tAtom, err := setAtom("T", "Y", t)
	if err != nil {
		return nil, Stats{}, err
	}
	q, err := NewQuery(rAtom, Atom{Rel: sRel, Vars: []string{"X", "Y"}}, tAtom)
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := Execute(q, &Options{GAO: []string{"X", "Y"}})
	if err != nil {
		return nil, Stats{}, err
	}
	return res.Tuples, res.Stats, nil
}

// setAtom binds attr to the unary relation name over a set's values.
func setAtom(name, attr string, vals []int) (Atom, error) {
	tuples := make([][]int, len(vals))
	for i := range vals {
		tuples[i] = vals[i : i+1]
	}
	rel, err := NewRelation(name, 1, tuples)
	return Atom{Rel: rel, Vars: []string{attr}}, err
}

// TriangleJoin computes R(A,B) ⋈ S(B,C) ⋈ T(A,C) with the dyadic-CDS
// Minesweeper of Theorem 5.4 (Õ(|C|^{3/2} + Z)). Inputs are pair lists;
// the output lists (a, b, c) triples.
func TriangleJoin(r, s, t [][]int) ([][]int, Stats, error) {
	var st Stats
	out, err := core.Triangle(r, s, t, &st)
	if err != nil {
		return nil, st, fmt.Errorf("minesweeper: %w", err)
	}
	baseline.SortTuples(out)
	return out, st, nil
}

// ListTriangles enumerates the ordered triangles of a directed edge list
// (use both orientations for an undirected graph).
func ListTriangles(edges [][]int) ([][]int, Stats, error) {
	return TriangleJoin(edges, edges, edges)
}
