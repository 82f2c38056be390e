package minesweeper

import (
	"context"
	"fmt"
	"sync"

	"minesweeper/internal/core"
	"minesweeper/internal/engine"
	"minesweeper/internal/planner"
	"minesweeper/internal/reltree"
)

// PreparedQuery is a query bound to a global attribute order and an
// engine, with every relation's search-tree index already built. Prepare
// once, execute many times: re-executions skip GAO planning, column
// permutation, sorting and index construction entirely, which is the
// difference between Õ(N log N) and O(#atoms) of setup per query on a
// served workload.
//
// When Options.GAO is empty the order is chosen by the data-aware
// planner: per-column statistics (cached on the relations) feed a cost
// model over elimination-width-feasible candidate orders. Sparse
// attributes are additionally rank-encoded through order-preserving
// dictionaries (see DictMode). Explain reports the resulting plan.
//
// A PreparedQuery is safe for concurrent use: each run operates on a
// snapshot whose tree views carry run-local state.
//
// A PreparedQuery stays bound to its relations across mutations: every
// execution compares the epoch each relation had at binding time with
// its current epoch, and when a relation has been mutated (Insert,
// Delete, Replace) the query transparently re-plans and re-binds before
// running — the caller never re-prepares by hand. Re-planning recosts
// the GAO from fresh statistics (a forced Options.GAO is kept as-is);
// when the chosen order is unchanged, re-binding pulls indexes from the
// relations' caches, so only the mutated relations pay for a new index
// — the mutation batches merged into the cached one, not a rebuild —
// and executions against unmutated relations keep the zero-build warm
// path.
type PreparedQuery struct {
	query  *Query
	opts   Options
	eng    Engine
	runner engine.Engine

	mu  sync.Mutex
	cur *prepState
}

// prepState is one epoch-stamped materialization of the full plan: the
// resolved order and its planning verdict, the shaping plan, the
// optional dictionaries, and the assembled problem with the epochs its
// indexes reflect.
type prepState struct {
	gao        []string // reported GAO over the query variables
	ext        []string // internal evaluation order: hidden constants + gao
	outVars    []string
	shape      *engine.Shape
	dicts      *core.DictSet // nil or per-ext-position dictionaries
	width      int
	cost       float64
	planned    bool // the cost model overrode the structural order
	planForced bool // Options.GAO pinned the order (never re-planned)
	problem    *core.Problem
	epochs     []uint64
}

// binding is the bind result: the assembled problem plus, per atom, the
// epoch its relation had when the atom's index was fetched, and the
// dictionaries the indexes were encoded under (nil when raw).
type binding struct {
	problem *core.Problem
	epochs  []uint64
	dicts   *core.DictSet
}

// prepState resolves the full plan for the options: GAO (planned or
// forced), shaping, dictionary selection, and index binding. prev (the
// state being replaced on a re-plan, nil at first Prepare) lets the
// dictionary bind path reuse dictionaries and encoded trees that the
// mutation provably did not touch.
func (q *Query) prepState(o *Options, prev *prepState) (*prepState, error) {
	st := &prepState{}
	atoms := q.plannerAtoms()
	if len(o.GAO) > 0 {
		st.gao = o.GAO
		st.planForced = true
		if w, err := q.hg.EliminationWidth(st.gao); err == nil {
			st.width = w
			st.cost = planner.CostOf(atoms, st.gao)
		}
	} else {
		plan := planner.Choose(atoms, planner.Config{})
		st.gao, st.width, st.cost, st.planned = plan.GAO, plan.Width, plan.Cost, plan.Planned
		// Plan stickiness: on a re-plan, keep the previous order when it
		// is still width-feasible and within a small margin of the new
		// best. Near-tie candidates otherwise flip on tiny statistic
		// changes, which churns the emission order long-lived consumers
		// see and defeats the warm re-bind path for no modelled gain.
		if prev != nil && !prev.planForced && len(prev.gao) == len(plan.GAO) && !sameStrings(prev.gao, plan.GAO) {
			if w, err := q.hg.EliminationWidth(prev.gao); err == nil && w == plan.Width {
				if c := planner.CostOf(atoms, prev.gao); c <= plan.Cost*planStickiness {
					structural, _ := planner.Structural(atoms)
					st.gao = append([]string(nil), prev.gao...)
					st.width, st.cost = w, c
					st.planned = !sameStrings(st.gao, structural)
				}
			}
		}
	}
	outVars, shape, err := q.buildShape(st.gao, o)
	if err != nil {
		return nil, err
	}
	st.outVars, st.shape = outVars, shape
	st.ext = q.extendGAO(st.gao)
	var bounds []core.Bound
	if shape != nil {
		bounds = shape.Bounds
	}
	var prevB *binding
	if prev != nil && prev.dicts != nil {
		prevB = &binding{problem: prev.problem, epochs: prev.epochs, dicts: prev.dicts}
	}
	encode, freq := q.dictPlan(o, st.ext, bounds)
	b, err := q.bind(st.ext, bounds, o.Debug, encode, freq, prevB)
	if err != nil {
		return nil, err
	}
	st.problem, st.epochs, st.dicts = b.problem, b.epochs, b.dicts
	return st, nil
}

// Auto dictionary gates: an attribute is rank-encoded when its value
// span exceeds both dictMinSpan and dictSparsityFactor times its total
// distinct count — i.e. when the domain is sparse enough that encoding
// can coalesce constraint-store intervals, and large enough to matter.
const (
	dictSparsityFactor = 4
	dictMinSpan        = 1024
)

// planStickiness is the relative cost slack within which a re-plan
// keeps the incumbent order instead of switching to a marginally
// cheaper candidate.
const planStickiness = 1.02

// dictPositions decides, per extended-GAO position, whether the
// attribute gets an order-preserving dictionary. Hidden constant
// columns never do (they are pinned to one value). Returns nil when
// nothing is encoded.
func (q *Query) dictPositions(mode DictMode, ext []string) []bool {
	if mode == DictOff {
		return nil
	}
	type agg struct {
		min, max, distinct int
		seen               bool
	}
	aggs := map[string]*agg{}
	for _, a := range q.atoms {
		st := a.Rel.ColStats()
		for j, v := range a.Vars {
			if len(v) > 0 && v[0] == '#' {
				continue // hidden constant column
			}
			cs := st.Cols[j]
			if cs.Distinct == 0 {
				continue
			}
			g := aggs[v]
			if g == nil {
				g = &agg{min: cs.Min, max: cs.Max}
				aggs[v] = g
			}
			if cs.Min < g.min {
				g.min = cs.Min
			}
			if cs.Max > g.max {
				g.max = cs.Max
			}
			// The union's distinct count is unknown without merging the
			// columns; the max over atoms is its lower bound and the
			// right sparsity estimate either way: identical columns
			// (union == max) are judged exactly, and disjoint columns
			// widen the span, which the union really is sparse over.
			// Summing would overstate density on shared join attributes
			// — exactly where interval coalescing pays most.
			if cs.Distinct > g.distinct {
				g.distinct = cs.Distinct
			}
			g.seen = true
		}
	}
	var out []bool
	for i, v := range ext {
		g := aggs[v]
		if g == nil || !g.seen {
			continue
		}
		if mode == DictAuto {
			span := g.max - g.min + 1
			if span < dictMinSpan || span <= dictSparsityFactor*g.distinct {
				continue
			}
		}
		if out == nil {
			out = make([]bool, len(ext))
		}
		out[i] = true
	}
	return out
}

// dictPlan resolves the per-position dictionary decisions: encode marks
// the positions that get a dictionary at all (the dictPositions gates),
// freq the subset whose code space is frequency-permuted under
// Options.Domain == DomainFreq. A position is frequency-permuted only
// when (a) some bound column's skew sketch qualifies
// (planner.FreqSkewed), and (b) no range bound is pushed down at the
// position — a permuted code space has no contiguous bound image, so
// permuting a bounded attribute would forfeit the pushdown. Frequency
// positions are dictionary-encoded even when the DictAuto sparsity gate
// would leave them raw: the permutation IS the encoding. freq is nil
// when no position is permuted (always under DomainNatural or DictOff).
func (q *Query) dictPlan(o *Options, ext []string, bounds []core.Bound) (encode, freq []bool) {
	encode = q.dictPositions(o.Dict, ext)
	if o.Domain != DomainFreq || o.Dict == DictOff {
		return encode, nil
	}
	skewed := map[string]bool{}
	for _, a := range q.atoms {
		st := a.Rel.ColStats()
		for j, v := range a.Vars {
			if len(v) > 0 && v[0] == '#' {
				continue // hidden constant column
			}
			if planner.FreqSkewed(st.Rows, st.Cols[j]) {
				skewed[v] = true
			}
		}
	}
	for i, v := range ext {
		if !skewed[v] {
			continue
		}
		if bounds != nil && !bounds[i].Full() {
			continue
		}
		if freq == nil {
			freq = make([]bool, len(ext))
		}
		freq[i] = true
		if encode == nil {
			encode = make([]bool, len(ext))
		}
		encode[i] = true
	}
	return encode, freq
}

// column extracts column j of the raw tuple rows.
func column(tuples [][]int, j int) []int {
	out := make([]int, len(tuples))
	for i, tup := range tuples {
		out[i] = tup[j]
	}
	return out
}

// bind fetches (or builds) the GAO-permuted index of every atom and
// assembles the core problem, recording the relation epochs the indexes
// reflect. Atoms are grouped by relation and each relation's state is
// fetched under a single lock acquisition, so a self-join can never
// bind two different versions of the same relation; distinct relations
// may still bind at different epochs (mutations are per-relation, there
// are no cross-relation transactions).
//
// When encode marks positions for dictionary encoding, the dictionaries
// are built from the same tuple snapshots the trees are, the tuples are
// rank-encoded before indexing and the bounds are translated into code
// space. Encoded trees are binding-local (the relations' shared index
// caches hold raw trees only). On a re-bind (prev != nil, same
// evaluation order and encode mask) the expensive pieces are reused
// where the mutation provably cannot have changed them: a dictionary
// whose participating relations are all unmutated is kept, and an
// atom's encoded tree is kept when its relation is unmutated AND every
// dictionary it was encoded under was kept (a rebuilt shared-attribute
// dictionary re-codes the column, so the tree must follow it). A
// mutation to one relation of a two-atom query sharing an encoded
// attribute therefore still rebuilds both trees — that is semantic,
// not wasted work.
//
// freq (nil or len(gao)) marks encoded positions whose dictionary is
// frequency-permuted (core.NewFreqDict) rather than rank-ordered; a
// previous binding's dictionary is only reused when its ordering
// discipline matches.
func (q *Query) bind(gao []string, bounds []core.Bound, debug bool, encode, freq []bool, prev *binding) (*binding, error) {
	atoms := make([]core.Atom, len(q.atoms))
	epochs := make([]uint64, len(q.atoms))
	perms := make([][]int, len(q.atoms))
	for i, a := range q.atoms {
		positions, perm, err := core.ColumnPlan(gao, a.Vars)
		if err != nil {
			return nil, fmt.Errorf("minesweeper: atom %d (%s): %w", i, a.Rel.Name(), err)
		}
		perms[i] = perm
		atoms[i] = core.Atom{
			Name:      fmt.Sprintf("%s#%d", a.Rel.Name(), i),
			Positions: positions,
		}
	}
	byRel := map[*Relation][]int{}
	var order []*Relation
	for i, a := range q.atoms {
		if _, seen := byRel[a.Rel]; !seen {
			order = append(order, a.Rel)
		}
		byRel[a.Rel] = append(byRel[a.Rel], i)
	}

	if encode == nil {
		// Raw path: shared, cached indexes.
		for _, rel := range order {
			idxs := byRel[rel]
			ps := make([][]int, len(idxs))
			for j, i := range idxs {
				ps[j] = perms[i]
			}
			trees, epoch, err := rel.IndexesFor(ps)
			if err != nil {
				return nil, err
			}
			for j, i := range idxs {
				atoms[i].Tree = trees[j]
				epochs[i] = epoch
			}
		}
		p, err := core.NewProblemFromAtoms(gao, atoms)
		if err != nil {
			return nil, err
		}
		p.Bounds = bounds
		p.Debug = debug
		return &binding{problem: p, epochs: epochs}, nil
	}

	// Dictionary path. A relation is "encoded" when any of its atoms
	// binds an encoded position; only those relations need the
	// tuple-snapshot + binding-local build. Relations with no encoded
	// column anywhere keep going through the shared per-relation index
	// cache — the warm zero-rebuild path — which also means a relation
	// must take one path for ALL its atoms (mixing fetches could bind a
	// self-join across two epochs).
	relEncoded := map[*Relation]bool{}
	for i, a := range q.atoms {
		for _, gp := range atoms[i].Positions {
			if encode[gp] {
				relEncoded[a.Rel] = true
				break
			}
		}
	}
	relTuples := map[*Relation][][]int{}
	for _, rel := range order {
		idxs := byRel[rel]
		if !relEncoded[rel] {
			ps := make([][]int, len(idxs))
			for j, i := range idxs {
				ps[j] = perms[i]
			}
			trees, epoch, err := rel.IndexesFor(ps)
			if err != nil {
				return nil, err
			}
			for j, i := range idxs {
				atoms[i].Tree = trees[j]
				epochs[i] = epoch
			}
			continue
		}
		tuples, epoch := rel.SnapshotTuples()
		relTuples[rel] = tuples
		for _, i := range idxs {
			epochs[i] = epoch
		}
	}

	// Reuse eligibility against the previous binding: same evaluation
	// order, same encode mask, and per relation an unchanged epoch.
	reuse := prev != nil && prev.dicts != nil &&
		len(prev.epochs) == len(q.atoms) && sameStrings(prev.problem.GAO, gao)
	if reuse {
		for p := range gao {
			if (prev.dicts.ByPos[p] != nil) != encode[p] {
				reuse = false
				break
			}
			if d := prev.dicts.ByPos[p]; d != nil && d.Freq() != (freq != nil && freq[p]) {
				reuse = false
				break
			}
		}
	}
	unchanged := map[*Relation]bool{}
	if reuse {
		for _, rel := range order {
			ok := true
			for _, i := range byRel[rel] {
				if prev.epochs[i] != epochs[i] {
					ok = false
					break
				}
			}
			unchanged[rel] = ok
		}
	}

	ds := &core.DictSet{ByPos: make([]*core.Dict, len(gao))}
	dictKept := make([]bool, len(gao))
	for p, attr := range gao {
		if !encode[p] {
			continue
		}
		if reuse {
			keep := true
			for _, a := range q.atoms {
				for _, v := range a.Vars {
					if v == attr && !unchanged[a.Rel] {
						keep = false
					}
				}
			}
			if keep {
				ds.ByPos[p] = prev.dicts.ByPos[p]
				dictKept[p] = true
				continue
			}
		}
		var lists [][]int
		for _, a := range q.atoms {
			for j, v := range a.Vars {
				if v == attr {
					lists = append(lists, column(relTuples[a.Rel], j))
				}
			}
		}
		if freq != nil && freq[p] {
			ds.ByPos[p] = core.NewFreqDict(lists...)
		} else {
			ds.ByPos[p] = core.NewDict(lists...)
		}
	}
	for i, a := range q.atoms {
		if atoms[i].Tree != nil {
			continue // unencoded relation: shared cached index, set above
		}
		if reuse && unchanged[a.Rel] {
			keep := true
			for _, gp := range atoms[i].Positions {
				if encode[gp] && !dictKept[gp] {
					keep = false
					break
				}
			}
			if keep {
				atoms[i].Tree = prev.problem.Atoms[i].Tree
				continue
			}
		}
		permuted, err := core.PermuteTuples(perms[i], relTuples[a.Rel])
		if err != nil {
			return nil, fmt.Errorf("minesweeper: relation %q: %w", a.Rel.Name(), err)
		}
		ds.EncodeTuples(permuted, atoms[i].Positions)
		tree, err := reltree.New(a.Rel.Name(), len(perms[i]), permuted)
		if err != nil {
			return nil, err
		}
		atoms[i].Tree = tree
	}
	p, err := core.NewProblemFromAtoms(gao, atoms)
	if err != nil {
		return nil, err
	}
	p.Bounds = ds.EncodeBounds(bounds)
	p.Debug = debug
	return &binding{problem: p, epochs: epochs, dicts: ds}, nil
}

// sameStrings reports element-wise equality.
func sameStrings(a, b []string) bool {
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

// Prepare resolves the GAO (running the data-aware planner when none is
// forced) and the engine, decides dictionary encoding, and builds (or
// fetches from the relations' caches) the GAO-permuted indexes. The
// returned PreparedQuery can be executed repeatedly without
// re-indexing; two prepared queries that bind the same relation under
// the same column order (without dictionaries) share one index.
// Mutating a bound relation does not invalidate the PreparedQuery: the
// next execution detects the epoch change and re-plans transparently.
func (q *Query) Prepare(opts *Options) (*PreparedQuery, error) {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	o.GAO = append([]string(nil), o.GAO...)
	eng := o.Engine
	if eng == EngineAuto {
		eng = EngineMinesweeper
	}
	runner, ok := engine.Lookup(eng.String())
	if !ok {
		return nil, fmt.Errorf("minesweeper: unknown engine %v", eng)
	}
	st, err := q.prepState(&o, nil)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{query: q, opts: o, eng: eng, runner: runner, cur: st}, nil
}

// GAO returns the resolved global attribute order — the evaluation (and
// tuple emission) order over the query's variables. It may differ from
// OutputVars, the presentation column order, and it may change when a
// mutation triggers a re-plan (Result.GAO records the order each run
// actually used).
func (pq *PreparedQuery) GAO() []string {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return append([]string(nil), pq.cur.gao...)
}

// OutputVars returns the column names of emitted tuples, in order: the
// projection list (or all query variables in first-appearance order)
// followed by one labelled column per aggregate. This matches
// Result.Vars of the Execute family.
func (pq *PreparedQuery) OutputVars() []string {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return append([]string(nil), pq.cur.outVars...)
}

// Engine returns the resolved engine (never EngineAuto).
func (pq *PreparedQuery) Engine() Engine { return pq.eng }

// Explain describes the plan an execution runs under: the chosen order
// and its elimination width, the cost model's estimate, whether the
// data-aware planner overrode the structural order, and which
// attributes are dictionary-encoded.
type Explain struct {
	// GAO is the evaluation order over the query's variables.
	GAO []string `json:"gao"`
	// Width is the order's elimination width w; the Minesweeper bound
	// under the order is Õ(|C|^{w+1} + Z).
	Width int `json:"width"`
	// EstCost is the planner's estimated cost of the order (model
	// units; comparable across orders of one query, not across queries).
	EstCost float64 `json:"est_cost"`
	// Planned is true when the cost model chose a different order than
	// the structural RecommendGAO default (false for forced GAOs).
	Planned bool `json:"planned"`
	// DictAttrs lists the attributes evaluated through a dictionary
	// encoding (dense code space).
	DictAttrs []string `json:"dict,omitempty"`
	// DictOrders reports, per encoded attribute, the domain ordering its
	// code space actually follows — "attr:rank" for the order-preserving
	// rank encoding, "attr:freq" for a frequency-permuted domain (see
	// DomainFreq). Stream consumers need this to reconstruct code-space
	// semantics: under "rank" the emission order and any code-space
	// bounds mirror raw value order, under "freq" they follow the
	// permuted domain.
	DictOrders []string `json:"dict_orders,omitempty"`
	// Partitions describes sharded execution, set only by the shard
	// layer (internal/shard): "rel=attr:range/N" when a range-partitioned
	// relation's split points on the leading GAO attribute cut the run's
	// morsels, or a single "gathered" entry when the run read the whole
	// relations unsliced (a hash partition, a frequency-permuted domain
	// or a materializing engine). Empty for unsharded execution.
	Partitions []string `json:"partitions,omitempty"`
	// SuffixFrom is the GAO index of the order's product-suffix cut k*,
	// read off the bound plan: below a prefix GAO[:k*], Minesweeper
	// walks the outputs of each output probe point by nested loops over
	// the atoms' sibling runs instead of probing for them. len(GAO)−1
	// is the walk of the last level alone. It describes the plan; it is
	// not an option.
	SuffixFrom int `json:"suffix_from"`
	// Engine is the resolved engine.
	Engine Engine `json:"-"`
}

// dictOrderEntry renders one DictOrders element.
func dictOrderEntry(attr string, freq bool) string {
	if freq {
		return attr + ":freq"
	}
	return attr + ":rank"
}

// explainState renders the plan of one immutable state.
func (pq *PreparedQuery) explainState(st *prepState) Explain {
	ex := Explain{
		GAO:     append([]string(nil), st.gao...),
		Width:   st.width,
		EstCost: st.cost,
		Planned: st.planned,
		Engine:  pq.eng,
		// Hidden constant columns lead the evaluation order.
		SuffixFrom: max(st.problem.SuffixFrom()-(len(st.ext)-len(st.gao)), 0),
	}
	if st.dicts.Any() {
		for i, d := range st.dicts.ByPos {
			if d != nil {
				ex.DictAttrs = append(ex.DictAttrs, st.ext[i])
				ex.DictOrders = append(ex.DictOrders, dictOrderEntry(st.ext[i], d.Freq()))
			}
		}
	}
	return ex
}

// Explain returns the prepared query's current plan. After a mutation
// the plan reported here is the stale one until the next execution (or
// Refresh) re-plans; to observe the exact plan of one run, use
// StreamContextExplained or Result.GAO/Result.Stats.
func (pq *PreparedQuery) Explain() Explain {
	pq.mu.Lock()
	st := pq.cur
	pq.mu.Unlock()
	return pq.explainState(st)
}

// Explain reports the plan the options would prepare — order, width,
// estimated cost, dictionary attributes — without building any index
// or dictionary: planning needs only the relations' cached statistics,
// so explaining a query over millions of tuples is cheap. Options are
// validated (engine, forced GAO, shaping clauses) like Prepare would.
func (q *Query) Explain(opts *Options) (Explain, error) {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	eng := o.Engine
	if eng == EngineAuto {
		eng = EngineMinesweeper
	}
	if _, ok := engine.Lookup(eng.String()); !ok {
		return Explain{}, fmt.Errorf("minesweeper: unknown engine %v", eng)
	}
	atoms := q.plannerAtoms()
	ex := Explain{Engine: eng}
	if len(o.GAO) > 0 {
		ex.GAO = append([]string(nil), o.GAO...)
		w, err := q.hg.EliminationWidth(ex.GAO)
		if err != nil {
			return Explain{}, fmt.Errorf("minesweeper: %w", err)
		}
		ex.Width = w
		ex.EstCost = planner.CostOf(atoms, ex.GAO)
	} else {
		plan := planner.Choose(atoms, planner.Config{})
		ex.GAO, ex.Width, ex.EstCost, ex.Planned = plan.GAO, plan.Width, plan.Cost, plan.Planned
	}
	_, sh, err := q.buildShape(ex.GAO, &o)
	if err != nil {
		return Explain{}, err
	}
	ext := q.extendGAO(ex.GAO)
	var bounds []core.Bound
	if sh != nil {
		bounds = sh.Bounds
	}
	positions := make([][]int, len(q.atoms))
	for i, a := range q.atoms {
		if positions[i], _, err = core.ColumnPlan(ext, a.Vars); err != nil {
			return Explain{}, fmt.Errorf("minesweeper: %w", err)
		}
	}
	ex.SuffixFrom = max(core.PlanSuffix(len(ext), positions)-(len(ext)-len(ex.GAO)), 0)
	encode, freq := q.dictPlan(&o, ext, bounds)
	for i, on := range encode {
		if on {
			ex.DictAttrs = append(ex.DictAttrs, ext[i])
			ex.DictOrders = append(ex.DictOrders, dictOrderEntry(ext[i], freq != nil && freq[i]))
		}
	}
	return ex, nil
}

// replanLocked rebuilds pq.cur when any bound relation has been
// mutated since the current state was built — the one shared re-plan
// condition for every path that needs a current plan. Re-planning
// re-runs the whole pipeline: fresh statistics, GAO choice (unless
// forced, with stickiness on near-ties), shaping, dictionaries,
// binding — so pushed-down constants and filters survive epoch changes
// and the order tracks the data. Callers hold pq.mu.
func (pq *PreparedQuery) replanLocked() error {
	for i, a := range pq.query.atoms {
		if a.Rel.Epoch() != pq.cur.epochs[i] {
			st, err := pq.query.prepState(&pq.opts, pq.cur)
			if err != nil {
				return err
			}
			pq.cur = st
			break
		}
	}
	return nil
}

// snapshot returns a per-run problem copy and the plan state it
// belongs to, re-planning first if needed (see replanLocked).
func (pq *PreparedQuery) snapshot() (*core.Problem, *prepState, error) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if err := pq.replanLocked(); err != nil {
		return nil, nil, err
	}
	return pq.cur.problem.Snapshot(), pq.cur, nil
}

// Refresh re-plans and re-binds immediately when any bound relation has
// been mutated since the current plan was built (a no-op otherwise).
// Executions do this transparently on their own; Refresh exists for
// callers that need the reported plan — GAO, Explain — to be current
// *before* running, e.g. a streaming server that writes the evaluation
// order into a response header ahead of the first tuple.
func (pq *PreparedQuery) Refresh() error {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return pq.replanLocked()
}

// Stream evaluates the prepared query, calling yield once per output
// tuple in GAO-lexicographic discovery order, with columns presented in
// OutputVars order. yield returns false to stop early.
func (pq *PreparedQuery) Stream(yield func([]int) bool) (Stats, error) {
	return pq.StreamContext(context.Background(), yield)
}

// StreamContext is Stream with cancellation: a cancelled or expired
// context aborts the run with ctx.Err(). Every engine runs through the
// same streaming executor and shaping adapter, so limits, cancellation,
// projection, filters and aggregation behave uniformly. Dictionary-
// encoded runs decode each tuple before the shaping net, so filters and
// aggregates always see raw values.
func (pq *PreparedQuery) StreamContext(ctx context.Context, yield func([]int) bool) (Stats, error) {
	stats, _, err := pq.streamPinned(ctx, nil, yield)
	return stats, err
}

// StreamContextExplained is StreamContext with plan introspection: the
// plan callback is invoked exactly once — with the plan this run
// actually executes under, after any transparent re-plan — before the
// first yield. Use it when the evaluation order must be reported ahead
// of the tuples (e.g. a streaming protocol header): reading GAO or
// Explain separately can race a concurrent mutation's re-plan, this
// cannot.
func (pq *PreparedQuery) StreamContextExplained(ctx context.Context, plan func(Explain), yield func([]int) bool) (Stats, error) {
	stats, _, err := pq.streamPinned(ctx, plan, yield)
	return stats, err
}

// pinnedRun is one run's pinned plan state and its raw run function;
// st is nil for the provably-empty no-work short-circuit.
type pinnedRun struct {
	raw     engine.RunFunc
	problem *core.Problem
	st      *prepState
}

// pin pins one plan state and assembles its raw run function — the
// resolved engine, spread over Options.Workers range morsels when it is
// IndexOnly, and the dictionary decode wrapper. splits, when non-empty,
// are raw values of the leading GAO attribute the run's morsels must
// cut at (see Pin).
func (pq *PreparedQuery) pin(splits []int) (pinnedRun, error) {
	pq.mu.Lock()
	empty := pq.cur.shape != nil && pq.cur.shape.Empty
	pq.mu.Unlock()
	if empty {
		// Contradictory filters: provably empty regardless of data, no
		// work (emptiness depends only on the clauses, not the epoch).
		return pinnedRun{}, nil
	}
	problem, st, err := pq.snapshot()
	if err != nil {
		return pinnedRun{}, err
	}
	if len(splits) > 0 {
		pos := len(st.ext) - len(st.gao)
		problem.SplitPos, problem.Splits = pos, splits
		if st.dicts != nil && st.dicts.ByPos[pos] != nil {
			// A split s starts at the first code whose value is ≥ s; a
			// permuted code space has no such image, so it is not cut.
			d := st.dicts.ByPos[pos]
			problem.Splits = nil
			for _, s := range splits {
				if d.OrderPreserving() {
					problem.Splits = append(problem.Splits, d.LoCode(s))
				}
			}
		}
	}
	rawRun := engine.Parallel(pq.runner, pq.opts.Workers)
	if st.dicts.Any() {
		inner := rawRun
		dicts := st.dicts
		rawRun = func(ctx context.Context, p *core.Problem, stats *Stats, emit func([]int) bool) error {
			return inner(ctx, p, stats, func(t []int) bool {
				dicts.DecodeInPlace(t)
				return emit(t)
			})
		}
	}
	return pinnedRun{raw: rawRun, problem: problem, st: st}, nil
}

// run executes a pinned state through the shaping adapter. Everything
// the run reports — the plan callback, the stats plan fields — comes
// from that single state, never from a racy re-read of pq.cur.
func (pq *PreparedQuery) run(ctx context.Context, p pinnedRun, plan func(Explain), yield func([]int) bool) (Stats, error) {
	var stats Stats
	if p.st == nil {
		if plan != nil {
			plan(pq.Explain())
		}
		return stats, nil
	}
	if plan != nil {
		plan(pq.explainState(p.st))
	}
	err := engine.RunShaped(ctx, p.raw, p.problem, p.st.shape, &stats, yield)
	stats.PlanWidth, stats.PlanCost = p.st.width, p.st.cost
	return stats, err
}

// streamPinned pins a plan state and runs the shaped query against it,
// returning the state alongside the run's stats (nil for the
// provably-empty no-work path).
func (pq *PreparedQuery) streamPinned(ctx context.Context, plan func(Explain), yield func([]int) bool) (Stats, *prepState, error) {
	p, err := pq.pin(nil)
	if err != nil {
		return Stats{}, nil, err
	}
	stats, err := pq.run(ctx, p, plan, yield)
	return stats, p.st, err
}

// Pin pins the plan state one run executes under — re-planning first
// if a bound relation was mutated — and returns that run, to be called
// once; it streams exactly as StreamContextExplained. Pinning is split
// from running so that a caller can pin under a lock of its own, held
// by its mutations too: the run then reads one mutation-consistent cut
// of the data however long it takes, outside the lock.
//
// splits, when non-empty, are ascending raw values of the leading GAO
// attribute — a range partition's split points — and every one becomes
// a range-morsel boundary of the run (mapped into code space when the
// attribute is rank-encoded). They change how an IndexOnly engine's
// work is cut, never the stream: internal/shard passes them so a range-
// partitioned relation is evaluated range by range over the one index.
func (pq *PreparedQuery) Pin(splits []int) (func(ctx context.Context, plan func(Explain), yield func([]int) bool) (Stats, error), error) {
	p, err := pq.pin(splits)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, plan func(Explain), yield func([]int) bool) (Stats, error) {
		return pq.run(ctx, p, plan, yield)
	}, nil
}

// Execute evaluates the prepared query and returns the full result.
func (pq *PreparedQuery) Execute() (*Result, error) {
	return pq.ExecuteContext(context.Background())
}

// ExecuteContext evaluates the prepared query under the context. When
// the run stops early — context cancellation or deadline expiry — the
// tuples collected so far are returned alongside the non-nil error, so
// callers can serve a partial page: res is non-nil whenever evaluation
// started, and res.Tuples is a prefix of the full GAO-ordered result.
func (pq *PreparedQuery) ExecuteContext(ctx context.Context) (*Result, error) {
	res := &Result{Vars: pq.OutputVars(), GAO: pq.GAO(), Engine: pq.eng}
	stats, st, err := pq.streamPinned(ctx, nil, func(t []int) bool {
		res.Tuples = append(res.Tuples, t)
		return true
	})
	res.Stats = stats
	if st != nil {
		// The order the tuples were actually emitted under — pinned from
		// the run's own plan state, immune to concurrent re-plans.
		res.GAO = append([]string(nil), st.gao...)
	}
	return res, err
}

// ExecuteLimit evaluates the prepared query, stopping after at most
// limit output tuples (the GAO-lexicographically smallest ones —
// engines emit in order, so the prefix is engine-independent). A
// negative limit means unlimited; limit 0 returns an empty result
// without evaluating.
func (pq *PreparedQuery) ExecuteLimit(limit int) (*Result, error) {
	return pq.ExecuteLimitContext(context.Background(), limit)
}

// ExecuteLimitContext is ExecuteLimit with cancellation. Like
// ExecuteContext, a cancelled or expired context returns the partial
// result collected so far alongside the error.
func (pq *PreparedQuery) ExecuteLimitContext(ctx context.Context, limit int) (*Result, error) {
	if limit < 0 {
		return pq.ExecuteContext(ctx)
	}
	res := &Result{Vars: pq.OutputVars(), GAO: pq.GAO(), Engine: pq.eng}
	if limit == 0 {
		return res, nil
	}
	stats, st, err := pq.streamPinned(ctx, nil, func(t []int) bool {
		res.Tuples = append(res.Tuples, t)
		return len(res.Tuples) < limit
	})
	res.Stats = stats
	if st != nil {
		res.GAO = append([]string(nil), st.gao...)
	}
	return res, err
}
