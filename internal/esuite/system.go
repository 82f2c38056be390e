package esuite

import (
	"context"
	"fmt"
	"os"

	"minesweeper"
	"minesweeper/internal/cds"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
	"minesweeper/internal/engine"
	"minesweeper/internal/ordered"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// The system workloads: what the repo added on top of the paper's
// algorithm. Their sizes are fixed (the names pin them), every case is
// tracked, and every table uses the generic layout.

// tracked builds a fixed-size case present at both scales and in the
// BENCH trajectory.
func tracked(name string, setup func(Scale) (*Instance, error)) Case {
	return Case{Name: name, Small: true, Full: true, Tracked: true, Setup: setup}
}

// --- E10/E11: selection pushdown and streaming aggregation -----------

// selectiveN is the per-relation size of the E10/E11 workloads.
const selectiveN = 10000

// selectiveProblem builds R(c, x) ⋈ S(x, y) with c = x mod 100: pinning
// c to one value keeps 1% of R. When bounded, the constant is pushed
// down as Problem.Bounds — the path the public API's R(x, 7) takes.
func selectiveProblem(bounded bool) (*core.Problem, error) {
	var rt, st [][]int
	for i := 0; i < selectiveN; i++ {
		rt = append(rt, []int{i % 100, i})
		st = append(st, []int{i, (i * 7) % 1000})
	}
	p, err := core.NewProblem([]string{"c", "x", "y"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"c", "x"}, Tuples: rt},
		{Name: "S", Attrs: []string{"x", "y"}, Tuples: st},
	})
	if err != nil {
		return nil, err
	}
	if bounded {
		p.Bounds = []core.Bound{{Lo: 7, Hi: 7}, core.FullBound(), core.FullBound()}
	}
	return p, nil
}

// selective evaluates the c = 7 selection either pushed down as a bound
// or as a per-tuple check on the full join.
func selective(pushdown bool) func(Scale) (*Instance, error) {
	return func(Scale) (*Instance, error) {
		p, err := selectiveProblem(pushdown)
		if err != nil {
			return nil, err
		}
		return &Instance{N: int64(p.InputSize()), Run: func(st *certificate.Stats) (int, error) {
			outputs := 0
			err := core.MinesweeperStreamContext(context.Background(), p.Snapshot(), st, func(t []int) bool {
				if t[0] == 7 {
					outputs++
				}
				return true
			})
			if err == nil && outputs != selectiveN/100 {
				err = fmt.Errorf("outputs = %d, want %d", outputs, selectiveN/100)
			}
			return outputs, err
		}}, nil
	}
}

func pushdown() *Experiment {
	return &Experiment{
		ID: "E10", Key: "pushdown",
		Title: "Constant selection seeded into the CDS vs checked per emitted tuple",
		Claim: "With the bound pushed down as a pre-ruled-out gap, cost tracks the 1% " +
			"selectivity, not the full join: ~75x fewer probes than the post-filter.",
		Cases: []Case{
			tracked("SelectivePushdown/sel=1%", selective(true)),
			tracked("SelectivePostFilter", selective(false)),
		},
	}
}

func aggregate() *Experiment {
	return &Experiment{
		ID: "E11", Key: "aggregate",
		Title: "Streaming aggregation sink: count(*) grouped by c over R ⋈ S",
		Claim: "Grouped aggregates ride the shared emit adapter and materialize only the " +
			"100 group states; certificate work equals the plain join's.",
		Cases: []Case{tracked("AggregateGroupCount", func(Scale) (*Instance, error) {
			p, err := selectiveProblem(false)
			if err != nil {
				return nil, err
			}
			sh := &engine.Shape{
				Cols:       []int{0},
				Aggregates: []engine.Aggregate{{Op: engine.AggCount, Col: -1}},
			}
			return &Instance{N: int64(p.InputSize()), Run: func(st *certificate.Stats) (int, error) {
				rows := 0
				err := engine.RunShaped(context.Background(), core.MinesweeperStreamContext, p.Snapshot(), sh, st, func([]int) bool {
					rows++
					return true
				})
				if err == nil && rows != 100 {
					err = fmt.Errorf("groups = %d, want 100", rows)
				}
				return rows, err
			}}, nil
		})},
	}
}

// --- E12: data-aware planning + dense-domain dictionaries ------------

// sparse runs E(A,B) ⋈ F(B,C) over generated sparse data through the
// public Prepare pipeline, under the structural order or the planner's,
// on raw or dictionary-encoded values — so each pair of cases measures
// what one step of the planning layer buys. Being the real pipeline, a
// run also pays its emission: one allocated output tuple per result
// whenever the planned order differs from the output column order.
func sparse(data func() (e, f [][]int), planned bool, dict minesweeper.DictMode) func(Scale) (*Instance, error) {
	return func(Scale) (*Instance, error) {
		e, f := data()
		re, err := minesweeper.NewRelation("E", 2, e)
		if err != nil {
			return nil, err
		}
		rf, err := minesweeper.NewRelation("F", 2, f)
		if err != nil {
			return nil, err
		}
		q, err := minesweeper.NewQuery(
			minesweeper.Atom{Rel: re, Vars: []string{"A", "B"}},
			minesweeper.Atom{Rel: rf, Vars: []string{"B", "C"}},
		)
		if err != nil {
			return nil, err
		}
		opts := &minesweeper.Options{Engine: minesweeper.EngineMinesweeper, Dict: dict}
		if !planned {
			opts.GAO, _ = q.RecommendGAO() // forcing the structural order bypasses the planner
		}
		pq, err := q.Prepare(opts)
		if err != nil {
			return nil, err
		}
		return &Instance{N: int64(len(e) + len(f)), Run: func(st *certificate.Stats) (int, error) {
			out := 0
			work, err := pq.Stream(func([]int) bool {
				out++
				return true
			})
			st.Add(&work)
			return out, err
		}}, nil
	}
}

func planning() *Experiment {
	skew := func() (e, f [][]int) { return dataset.SparseSkewJoin(20000, 64, 10007) }
	heavy := func() (e, f [][]int) { return dataset.SparseHeavyEnum(64, 32, 20000, 9973) }
	return &Experiment{
		ID: "E12", Key: "planner",
		Title: "Data-aware GAO planning and dense-domain dictionaries on sparse joins",
		Claim: "On skewed sizes the cost-based order cuts probes ~40x against the structural " +
			"default; on the output-heavy instance the order removes the box churn and lets " +
			"Minesweeper walk the whole output as one product suffix, and the dictionary still " +
			"removes the phantom gaps: fewer constraints, FindGaps and CDS ops at equal probes " +
			"(PlannedRaw vs Planned).",
		Cases: []Case{
			tracked("SparseSkew/Default", sparse(skew, false, minesweeper.DictOff)),
			tracked("SparseSkew/Planned", sparse(skew, true, minesweeper.DictOn)),
			tracked("SparseHeavyEnum/Default", sparse(heavy, false, minesweeper.DictOff)),
			tracked("SparseHeavyEnum/PlannedRaw", sparse(heavy, true, minesweeper.DictOff)),
			tracked("SparseHeavyEnum/Planned", sparse(heavy, true, minesweeper.DictOn)),
		},
	}
}

// --- E13: clustered joins, box-cover vs interval-only CDS ------------

// clusteredJoin runs R(X,Y) ⋈ S(X,Y) with or without box emission. The
// GAO is pinned to the clustered X-first order — the data-aware planner
// would put the two-value Y attribute first and empty the band join
// from the bands alone, which is a fine plan but not the CDS mechanism
// these cases measure.
func clusteredJoin(data func() (r, s [][]int), boxes bool) func(Scale) (*Instance, error) {
	return join("minesweeper", func(Scale) query {
		r, s := data()
		return query{gao: []string{"X", "Y"}, intervalOnly: !boxes, atoms: []core.AtomSpec{
			{Name: "R", Attrs: []string{"X", "Y"}, Tuples: r},
			{Name: "S", Attrs: []string{"X", "Y"}, Tuples: s},
		}}
	})
}

func clustered() *Experiment {
	// Band: disjoint Y-bands, an empty join whose ruling-out is the whole
	// cost. Overlap: every 256th cluster member emits one tuple — the
	// hit spacing leaves widening streaks long enough for boxes to pay.
	band := func() (r, s [][]int) { return dataset.ClusteredBandJoin(8, 1024) }
	overlap := func() (r, s [][]int) { return dataset.ClusteredOverlapJoin(8, 1024, 256) }
	return &Experiment{
		ID: "E13", Key: "clustered",
		Title: "Clustered joins: box-cover CDS vs interval-only CDS",
		Claim: "Interval-only pays one probe round per cluster member; boxes retire each " +
			"cluster's X-range × Y-band rectangle after a short widening streak — two orders " +
			"of magnitude fewer probes on the band join, and the win persists with real output.",
		Cases: []Case{
			tracked("ClusteredBand/Boxes", clusteredJoin(band, true)),
			tracked("ClusteredBand/IntervalOnly", clusteredJoin(band, false)),
			tracked("ClusteredOverlap/Boxes", clusteredJoin(overlap, true)),
			tracked("ClusteredOverlap/IntervalOnly", clusteredJoin(overlap, false)),
		},
	}
}

// --- E14: durability --------------------------------------------------
//
// The serving tier's data plane at the storage layer (the catalog adds
// only validation and a map update on top): what one logged mutation
// costs over each backend, and how recovery time scales with WAL length.

// wallClock marks tracked cases as ungated (see Case.WallClock).
func wallClock(cases ...Case) []Case {
	for i := range cases {
		cases[i].WallClock = true
	}
	return cases
}

// inTempDir gives setup a scratch directory that lives as long as the
// instance: removed by its Close, or at once if setup fails.
func inTempDir(setup func(dir string) (*Instance, error)) func(Scale) (*Instance, error) {
	return func(Scale) (*Instance, error) {
		dir, err := os.MkdirTemp("", "esuite-*")
		if err != nil {
			return nil, err
		}
		inst, err := setup(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		closeInstance := inst.Close
		inst.Close = func() {
			if closeInstance != nil {
				closeInstance()
			}
			os.RemoveAll(dir)
		}
		return inst, nil
	}
}

// durableAppend logs one mid-sized insert (two tuples of two values)
// per run over the backend open returns.
func durableAppend(open func(dir string) (storage.Backend, error)) func(Scale) (*Instance, error) {
	rec := &storage.Record{Op: storage.OpInsert, Name: "R", Tuples: [][]int{{12345, 67890}, {13, 7}}}
	return inTempDir(func(dir string) (*Instance, error) {
		be, err := open(dir)
		if err != nil {
			return nil, err
		}
		if _, err := be.Recover(); err != nil {
			be.Close()
			return nil, err
		}
		return &Instance{
			Run:   func(*certificate.Stats) (int, error) { return 0, be.Append(rec) },
			Close: func() { be.Close() },
		}, nil
	})
}

// durableRecovery measures a cold open — scan, replay, reopen — of a
// WAL holding n records, the restart cost msserve pays after a kill.
func durableRecovery(n int) func(Scale) (*Instance, error) {
	return inTempDir(func(dir string) (*Instance, error) {
		d, err := storage.OpenDurable(dir, storage.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := d.Recover(); err != nil {
			return nil, err
		}
		if err := d.Append(&storage.Record{Op: storage.OpCreate, Name: "R", Vars: []string{"A", "B"}}); err != nil {
			return nil, err
		}
		for i := 1; i < n; i++ {
			rec := &storage.Record{Op: storage.OpInsert, Name: "R", Epoch: uint64(i - 1), Tuples: [][]int{{i, i * 2}}}
			if err := d.Append(rec); err != nil {
				return nil, err
			}
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		return &Instance{N: int64(n), Run: func(*certificate.Stats) (int, error) {
			d, err := storage.OpenDurable(dir, storage.Options{})
			if err != nil {
				return 0, err
			}
			defer d.Close()
			st, err := d.Recover()
			if err != nil {
				return 0, err
			}
			if len(st.Relations) != 1 || len(st.Relations[0].Tuples) != n-1 {
				return 0, fmt.Errorf("recovered %d relations", len(st.Relations))
			}
			return n - 1, nil
		}}, nil
	})
}

func durability() *Experiment {
	return &Experiment{
		ID: "E14", Key: "durable",
		Title: "Durability: cost of one logged mutation, and recovery time vs WAL length",
		Claim: "A WAL append without fsync costs about a microsecond over the in-memory " +
			"baseline, fsync dominates when on, and recovery is linear in the WAL length " +
			"(on the order of a hundred thousand records per second).",
		Cases: wallClock(
			tracked("DurableAppend/mem", durableAppend(func(string) (storage.Backend, error) { return storage.NewMem(), nil })),
			tracked("DurableAppend/wal", durableAppend(func(dir string) (storage.Backend, error) {
				return storage.OpenDurable(dir, storage.Options{})
			})),
			tracked("DurableAppend/wal-fsync", durableAppend(func(dir string) (storage.Backend, error) {
				return storage.OpenDurable(dir, storage.Options{FsyncEach: true})
			})),
			tracked("DurableRecovery/wal=1024", durableRecovery(1024)),
			tracked("DurableRecovery/wal=16384", durableRecovery(16384)),
		),
	}
}

// --- E15: sharded scaling ---------------------------------------------

type shardedRel struct {
	name   string
	vars   []string
	tuples [][]int
}

// shardedRead prepares expr once over a catalog split into the given
// number of shards and measures steady-state sharded execution: one run
// over the whole relations, its morsels cut at a range partition's
// splits when one leads the GAO.
func shardedRead(shards int, expr string, data func() []shardedRel) func(Scale) (*Instance, error) {
	return func(Scale) (*Instance, error) {
		c := shard.New(shards)
		n := 0
		for _, r := range data() {
			if _, err := c.Create(r.name, r.vars, r.tuples); err != nil {
				return nil, err
			}
			n += len(r.tuples)
		}
		q, err := c.Query(expr)
		if err != nil {
			return nil, err
		}
		pq, err := c.Prepare(q, nil)
		if err != nil {
			return nil, err
		}
		res, err := pq.Execute()
		if err != nil {
			return nil, err
		}
		want := len(res.Tuples)
		return &Instance{N: int64(n), Run: func(st *certificate.Stats) (int, error) {
			got := 0
			work, err := pq.StreamContextExplained(context.Background(), nil, func([]int) bool {
				got++
				return true
			})
			st.Add(&work)
			if err == nil && got != want {
				err = fmt.Errorf("run emitted %d tuples, want %d", got, want)
			}
			return got, err
		}}, nil
	}
}

// replicatedInsert measures a replicated write: one insert+delete pair
// per run against a 4-shard catalog logging to the given number of
// replicas.
func replicatedInsert(replicas int) func(Scale) (*Instance, error) {
	return func(Scale) (*Instance, error) {
		c := shard.NewReplicated(4, replicas)
		var tuples [][]int
		for i := 0; i < 4096; i++ {
			tuples = append(tuples, []int{i, (i * 7) % 512})
		}
		if _, err := c.Create("E", []string{"a", "b"}, tuples); err != nil {
			return nil, err
		}
		i := 0
		return &Instance{N: int64(len(tuples)), Run: func(*certificate.Stats) (int, error) {
			t := []int{100000 + i, i % 512}
			i++
			if _, err := c.Insert("E", t); err != nil {
				return 0, err
			}
			_, _, err := c.Delete("E", t)
			return 0, err
		}}, nil
	}
}

func sharding() *Experiment {
	e := &Experiment{
		ID: "E15", Key: "sharded",
		Title: "Sharded scaling: sliced reads at 1/2/4/8 shards, replicated writes at 1/2/3 replicas",
		Claim: "A sharded read is the one-shard run over the whole relations. When a range " +
			"partition leads the GAO (E1), its N-1 splits become morsel boundaries, and the " +
			"probes above shards=1 are what the split-aligned morsels re-learn. A hash partition " +
			"(E12) is not a range of the cut attribute, so it runs gathered, and every shard " +
			"count has the shards=1 counters. replicas=1 is the one-log write baseline; the " +
			"slope is the per-replica log append (the mutation applies in memory once at any count).",
	}
	// E1's power-law path join and E12's heavy-enumeration skew join
	// (per-shard probe work dominates emission).
	e1 := func() []shardedRel {
		return []shardedRel{{"E", []string{"src", "dst"}, dataset.PowerLawGraph(2000, 6, false, 1).Edges}}
	}
	e12 := func() []shardedRel {
		e, f := dataset.SparseHeavyEnum(64, 32, 20000, 9973)
		return []shardedRel{{"E", []string{"a", "b"}, e}, {"F", []string{"b", "c"}, f}}
	}
	// Reads run in order on one goroutine, so their counters are exact
	// and gated; writes do no certificate work, so only their time
	// counts.
	for _, n := range []int{1, 2, 4, 8} {
		e.Cases = append(e.Cases,
			tracked(fmt.Sprintf("ShardedScaling/E1/shards=%d", n), shardedRead(n, "E(A,B), E(B,C)", e1)),
			tracked(fmt.Sprintf("ShardedScaling/E12/shards=%d", n), shardedRead(n, "E(A,B), F(B,C)", e12)),
		)
	}
	for _, r := range []int{1, 2, 3} {
		e.Cases = append(e.Cases, wallClock(tracked(fmt.Sprintf("ShardedScaling/ReplicatedInsert/replicas=%d", r), replicatedInsert(r)))...)
	}
	return e
}

// --- E18: range-morsel parallelism -------------------------------------

// parallel runs Minesweeper, Leapfrog and the dyadic triangle through
// the one parallel executor, engine.Parallel, at 1/2/4 workers. The
// morsel cut depends on the data and the worker count alone, so the
// summed counters are exact and gated like the sequential cases.
// OutBound is msserve's out_bound shape, R(A,B), S(B,C) with every value
// of degree 4, under the order [B A C] the planner serves it with:
// below each B value its outputs are the product of R's A run and S's C
// run, which Minesweeper walks after one output probe.
func parallel() *Experiment {
	e := &Experiment{
		ID: "E18", Key: "parallel",
		Title: "Range-morsel parallelism: one executor for Minesweeper, Leapfrog and the dyadic triangle",
		Claim: "Cutting the leading attribute into 4·W morsels keeps the W=1 output. Work grows by what " +
			"each morsel re-learns: about a probe per boundary when every atom leads with the cut " +
			"attribute, plus the gaps of the atoms that do not (E2, S), found again per morsel.",
	}
	add := func(input, eng string, w int, setup func(Scale) (*Instance, error)) {
		e.Cases = append(e.Cases, Case{
			Name:   fmt.Sprintf("Parallel/%s/%s/workers=%d", input, eng, w),
			Coords: []Coord{label("input", input), label("engine", eng), num("workers", w)},
			Small:  true, Full: true, Tracked: true,
			Setup: setup,
		})
	}
	for _, w := range []int{1, 2, 4} {
		for _, eng := range []string{"minesweeper", "leapfrog"} {
			add("E1", eng, w, join(eng, func(Scale) query {
				edges := dataset.PowerLawGraph(2000, 6, false, 1).Edges
				return query{gao: []string{"A", "B", "C"}, workers: w, atoms: []core.AtomSpec{
					{Name: "E1", Attrs: []string{"A", "B"}, Tuples: edges},
					{Name: "E2", Attrs: []string{"B", "C"}, Tuples: edges},
				}}
			}))
		}
		add("triangle", "dyadic", w, func(Scale) (*Instance, error) {
			p, err := core.TriangleProblem(dataset.TriangleGraph(dataset.PowerLawGraph(600, 8, true, 5)))
			if err != nil {
				return nil, err
			}
			return runInstance(p, engine.Parallel(engine.Engine{IndexOnly: true, Run: core.TriangleRun}, w)), nil
		})
	}
	for _, w := range []int{1, 4} {
		add("OutBound", "minesweeper", w, join("minesweeper", func(Scale) query {
			return query{gao: []string{"B", "A", "C"}, workers: w, atoms: []core.AtomSpec{
				{Name: "R", Attrs: []string{"A", "B"}, Tuples: regularPairs(200, 4, 7, 53)},
				{Name: "S", Attrs: []string{"B", "C"}, Tuples: regularPairs(200, 4, 11, 29)},
			}}
		}))
	}
	return e
}

// regularPairs is a bipartite graph over [0, n)² in which every value
// has degree deg on either side: x is paired with (mul·x + step·k) mod n
// for k < deg. mul must be a unit mod n and step·k distinct mod n for
// k < deg. It is msserve's out_bound shape at unit-test size.
func regularPairs(n, deg, mul, step int) [][]int {
	out := make([][]int, 0, n*deg)
	for x := 0; x < n; x++ {
		for k := 0; k < deg; k++ {
			out = append(out, []int{x, (mul*x + step*k) % n})
		}
	}
	return out
}

// --- hot-path micro-benchmarks ---------------------------------------

func micro() *Experiment {
	return &Experiment{
		ID: "micro", Key: "micro",
		Title: "Substrate micro-benchmarks: CDS steady state, interval lists, adaptive intersection",
		Claim: "The CDS probe/insert loop allocates only while its arenas grow; constraint " +
			"insertion and interval-list churn recycle their storage.",
		Cases: []Case{
			// The CDS steady state in isolation: the GetProbePoint /
			// InsConstraint alternation of Algorithm 2's outer loop over a
			// three-attribute tree, repeatedly ruling out the probe it is
			// handed. One run is a full drain of a fresh tree, so
			// allocs/op captures everything the CDS allocates over its
			// lifetime.
			tracked("CDSProbeInsertLoop", func(Scale) (*Instance, error) {
				const span = 256
				stars := cds.Pattern{cds.Star, cds.Star}
				ruleOut := cds.Pattern{cds.Eq(0)}
				return &Instance{Run: func(st *certificate.Stats) (int, error) {
					tr := cds.NewTree(3)
					tr.SetStats(st)
					// Bound every attribute to [0, span) so the drain terminates.
					for d := 0; d < 3; d++ {
						tr.InsConstraint(cds.Constraint{Prefix: stars[:d], Lo: ordered.NegInf, Hi: 0})
						tr.InsConstraint(cds.Constraint{Prefix: stars[:d], Lo: span - 1, Hi: ordered.PosInf})
					}
					n := 0
					for t := tr.GetProbePoint(); t != nil; t = tr.GetProbePoint() {
						// Rule out the whole subtree under the probe's first value, so
						// the drain visits each first-attribute value exactly once.
						ruleOut[0] = cds.Eq(t[0])
						tr.InsConstraint(cds.Constraint{Prefix: ruleOut, Lo: ordered.NegInf, Hi: ordered.PosInf})
						if n++; n > 4*span {
							return 0, fmt.Errorf("CDS drain did not converge")
						}
					}
					return 0, nil
				}}, nil
			}),
			// Constraint insertion alone: a stream of overlapping
			// star-pattern intervals that continually merge, the memoization
			// write pattern of Algorithm 4 line 13. One run is one insertion.
			tracked("CDSInsConstraint", func(Scale) (*Instance, error) {
				tr := cds.NewTree(2)
				prefix := cds.Pattern{cds.Star} // hoisted: InsConstraint never retains it
				i := 0
				return &Instance{Run: func(st *certificate.Stats) (int, error) {
					tr.SetStats(st)
					v := (i * 7) % 4096
					i++
					tr.InsConstraint(cds.Constraint{Prefix: prefix, Lo: v - 2, Hi: v + 2})
					return 0, nil
				}}, nil
			}),
			tracked("RangeSetInsert", func(Scale) (*Instance, error) {
				return &Instance{Run: func(*certificate.Stats) (int, error) {
					rs := ordered.NewRangeSet()
					for j := 0; j < 100; j++ {
						rs.Insert(j*10, j*10+5)
					}
					return 0, nil
				}}, nil
			}),
			// The DeleteInterval recycling path: keys are inserted and then
			// swallowed by interval deletions, the churn InsConstraint puts
			// on every CDS node.
			tracked("SortedListInsertDelete", func(Scale) (*Instance, error) {
				return &Instance{Run: func(*certificate.Stats) (int, error) {
					s := ordered.NewSortedList[int]()
					for round := 0; round < 20; round++ {
						for j := 0; j < 50; j++ {
							s.Insert(j*3, j)
						}
						s.DeleteInterval(ordered.NegInf, ordered.PosInf)
					}
					return 0, nil
				}}, nil
			}),
			// The dyadic triangle CDS on a power-law graph, where triangles
			// exist, rather than on E6's hard family.
			tracked("TriangleListingGraph", func(Scale) (*Instance, error) {
				return dyadicTriangle(dataset.TriangleGraph(dataset.PowerLawGraph(600, 8, true, 5))), nil
			}),
			// Set intersection with one tiny set against large ones, the
			// skewed regime where remembered gaps let the probes skip
			// whole blocks of the large sets.
			tracked("IntersectAdaptiveSkewed", join("minesweeper", func(Scale) query {
				sets := dataset.BlockSets(4, 50000)
				small := make([]int, 0, len(sets[0])/64)
				for i := 0; i < len(sets[0]); i += 64 {
					small = append(small, sets[0][i])
				}
				return intersectQuery(append([][]int{small}, sets[1:]...))
			})),
		},
	}
}
