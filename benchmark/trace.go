package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"minesweeper"
	"minesweeper/internal/catalog"
	"minesweeper/internal/cds"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/engine"
	"minesweeper/internal/relio"
	"minesweeper/internal/reltree"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// span is one recorded call into a layer's public function. Spans of
// one ladder iteration (or one HTTP round) share a request id; parent
// is the id of the span one rung up the ladder, -1 at the top. Calls
// is set on aggregated spans that stand for many short calls (the
// FindGap and CDS sections of the probe loop), whose End is Start plus
// their summed busy time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Nothing in it reaches into the program: spans are recorded around the
// calls the harness itself makes.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex // the two burst connections record spans concurrently
	spans   []span
	samples map[string][]float64 // metric key → samples, filled beside the spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), samples: map[string][]float64{}} }

func (t *tracer) record(req string, parent int, layer, name string, start time.Time, d time.Duration, calls int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{id, parent, req, layer, name, s, s + d.Nanoseconds(), calls})
	return id
}

// call times f as one span and returns the span's id and duration.
func (t *tracer) call(req string, parent int, layer, name string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	d := time.Since(start)
	return t.record(req, parent, layer, name, start, d, 0), d
}

func (t *tracer) add(key string, v float64) { t.samples[key] = append(t.samples[key], v) }

// layerRow is one rung of the outside-in ladder in trace.json: the q1
// time of the rung's span and its self time, the span minus the rung
// below it.
type layerRow struct {
	Layer  string  `json:"layer"`
	Span   string  `json:"span"`
	Q1Ms   float64 `json:"q1_ms"`
	SelfMs float64 `json:"self_ms"`
}

func (t *tracer) write(path string, w *workload, seed int64, ladder []layerRow) error {
	out, err := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "ladder": ladder, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o666)
}

// countEmit returns an emit callback that only counts, and the counter.
func countEmit() (func([]int) bool, *int) {
	n := new(int)
	return func([]int) bool { *n++; return true }, n
}

// checkedRun runs f with an emit that renders every tuple as msserve
// would (cols maps output column → position in the emitted tuple) and
// compares count and checksum with the oracle.
func checkedRun(want expect, cols []int, f func(emit func([]int) bool) error) error {
	var got expect
	var line []byte
	row := make([]int, len(cols))
	err := f(func(t []int) bool {
		for i, c := range cols {
			row[i] = t[c]
		}
		line = appendTupleLine(line[:0], row)
		got.add(line)
		return true
	})
	if err == nil && got != want {
		err = fmt.Errorf("oracle mismatch: got %d tuples checksum %x, want %d checksum %x", got.count, got.sum, want.count, want.sum)
	}
	return err
}

// identity returns 0..n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mallocs returns the process's cumulative heap object count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// ladderState is what one ladder iteration builds from the generated
// inputs, outside-in.
type ladderState struct {
	cat     *catalog.Catalog
	pq      *minesweeper.PreparedQuery
	problem *core.Problem
	cols    []int // output column → GAO position, for the raw rungs
}

// tracedLadder times the workload's generated inputs in-process at each
// layer's public functions and turns the spans, together with the
// HTTP samples of the traced schedule, into the per-layer metrics.
func tracedLadder(e *env, o options, w *workload, orc *oracle, res *httpResult, tr *tracer) (map[string]metric, error) {
	ctx := context.Background()
	texts := make([][]byte, len(w.rels))
	textBytes := 0
	for i := range w.rels {
		texts[i] = w.rels[i].relio()
		textBytes += len(texts[i])
	}
	budget := time.Duration(o.seconds) * time.Second / 3
	minIters, maxIters := 3, 12
	if o.scale == "smoke" {
		budget, minIters, maxIters = 0, 2, 2
	}
	deadline := time.Now().Add(budget)
	fail := func(op string, err error) { res.ops.note("ladder."+op, err) }

	var stats certificate.Stats
	var st *ladderState
	for it := 0; it < maxIters && (it < minIters || time.Now().Before(deadline)); it++ {
		req := fmt.Sprintf("ladder-%d", it)
		var err error
		if st, err = buildLadder(tr, req, w, texts); err != nil {
			return nil, err
		}
		if it == 0 {
			if d := st.pq.Explain().DictAttrs; len(d) > 0 {
				fail("like_for_like", fmt.Errorf("attributes %v are dictionary-encoded: the core and engine rungs would not run msserve's problem", d))
			}
			// One verified, untimed pass per rung before any timing.
			fail("stream", checkedRun(orc.base, identity(len(st.cols)), func(emit func([]int) bool) error {
				_, err := st.pq.StreamContext(ctx, emit)
				return err
			}))
			for _, name := range []string{"minesweeper", "leapfrog"} {
				eng, _ := engine.Lookup(name)
				fail("engine."+name, checkedRun(orc.base, st.cols, func(emit func([]int) bool) error {
					return engine.RunShaped(ctx, eng.Run, st.problem.Snapshot(), nil, nil, emit)
				}))
			}
		}
		stats = runRungs(ctx, tr, req, w, orc, st, fail)
		mutationRungs(tr, req, w, st, fail)
	}
	req := "ladder-once"
	probeOverhead := probeLoopRungs(tr, req, st.problem)
	if err := storageRungs(e, tr, req, w, texts, fail); err != nil {
		return nil, err
	}
	if err := shardRungs(ctx, tr, req, w, orc, texts, fail); err != nil {
		return nil, err
	}

	q := func(key string) float64 { return q1(tr.samples[key]) }
	runMs := q1(res.run)
	z := float64(orc.base.count)
	streamMs := q("minesweeper.stream_ms")
	served := streamMs // the in-process stream at the workload's own N and R
	sharded := w.shards > 1 || w.replicas > 1
	if sharded {
		served = q("shard.stream_ms")
	}
	m := map[string]metric{
		"reltree.build_ms":            {q("reltree.build_ms"), "ms"},
		"reltree.findgap_ns":          {q("reltree.findgap_ns"), "ns"},
		"reltree.findgaps_per_run":    {float64(stats.FindGaps), "count"},
		"reltree.comparisons_per_run": {float64(stats.Comparisons), "count"},
		"cds.op_ns":                   {q("cds.op_ns"), "ns"},
		"cds.ops_per_run":             {float64(stats.CDSOps), "count"},
		"cds.constraints_per_run":     {float64(stats.Constraints), "count"},
		"cds.boxes_per_run":           {float64(stats.Boxes), "count"},
		"cds.boxskips_per_run":        {float64(stats.BoxSkips), "count"},
		"core.run_ms":                 {q("core.run_ms"), "ms"},
		"core.probes_per_output":      {float64(stats.ProbePoints) / math.Max(z, 1), "count"},
		"core.backtracks_per_run":     {float64(stats.Backtracks), "count"},
		"core.outputs_per_run":        {float64(stats.Outputs), "count"},
		"engine.run_ms":               {q("engine.run_ms"), "ms"},
		"engine.tax_ms":               {math.Max(0, q("engine.run_ms")-q("core.run_ms")), "ms"},
		"engine.leapfrog_run_ms":      {q("engine.leapfrog_run_ms"), "ms"},
		"planner.plan_us":             {q("planner.plan_us"), "us"},
		"minesweeper.parse_us":        {q("minesweeper.parse_us"), "us"},
		"minesweeper.prepare_ms":      {q("minesweeper.prepare_ms"), "ms"},
		"minesweeper.stream_ms":       {streamMs, "ms"},
		"minesweeper.tax_ms":          {math.Max(0, streamMs-q("engine.run_ms")), "ms"},
		"minesweeper.allocs_per_run":  {q("minesweeper.allocs_per_run"), "count"},
		"minesweeper.refresh_ms":      {q("minesweeper.refresh_ms"), "ms"},
		"relio.load_ms":               {q("relio.load_ms"), "ms"},
		"relio.bytes_per_tuple":       {float64(textBytes) / float64(w.tuplesTotal()), "B"},
		"catalog.insert_ms":           {q("catalog.insert_ms"), "ms"},
		"catalog.delete_ms":           {q("catalog.delete_ms"), "ms"},
		"catalog.open_ms":             {q("catalog.open_ms"), "ms"},
		"storage.append_us":           {q("storage.append_us"), "us"},
		"storage.append_fsync_us":     {q("storage.append_fsync_us"), "us"},
		"storage.syncs_per_mutation":  {float64(res.syncs) / math.Max(float64(res.mutations), 1), "count"},
		"storage.wal_bytes_per_tuple": {q("storage.wal_bytes_per_tuple"), "B"},
		"storage.snapshots":           {float64(res.snapshots), "count"},
		"storage.recover_ms":          {q("storage.recover_ms"), "ms"},
		"shard.stream_n1_ms":          {q("shard.stream_n1_ms"), "ms"},
		"shard.tax_n1_ms":             {math.Max(0, q("shard.stream_n1_ms")-streamMs), "ms"},
		"shard.stream_ms":             {0, "ms"},
		"shard.tax_ms":                {0, "ms"},
		"shard.allocs_per_run":        {0, "count"},
		"shard.insert_ms":             {0, "ms"},
		"shard.substream_retries":     {float64(res.retries), "count"},
		"shard.failovers":             {float64(res.failovers), "count"},
		"msserve.tax_ms":              {math.Max(0, runMs-served), "ms"},
		"msserve.tax_us_per_tuple":    {1000 * math.Max(0, runMs-served) / math.Max(z, 1), "us"},
		"msserve.bytes_per_tuple":     {float64(res.bytesPerRun) / math.Max(z, 1), "B"},
		"msserve.ttft_q1_ms":          {q1(res.ttft), "ms"},
		"msserve.run_p50_ms":          {quantile(res.run, 0.5), "ms"},
		"msserve.run_p90_ms":          {quantile(res.run, 0.9), "ms"},
		"msserve.insert_q1_ms":        {res.insert.q1(), "ms"},
		"msserve.delete_q1_ms":        {res.del.q1(), "ms"},
		"msserve.adhoc_q1_ms":         {q1(res.adhoc), "ms"},
		"msserve.limit10_q1_ms":       {q1(res.limit10), "ms"},
		"msserve.cold_run_ms":         {res.coldRunMs, "ms"},
		"msserve.c2_tuples_per_s":     {2 * z / q1(res.burstS), "1/s"},
		"msserve.shed_429":            {float64(res.shed), "count"},
		"driver.late_rounds":          {float64(res.lateRounds), "count"},
		"driver.trace_overhead_pct":   {probeOverhead, "%"},
	}
	if sharded {
		// The shard layer is on the serving path of this workload only;
		// elsewhere its tax is reported as zero.
		m["shard.stream_ms"] = metric{served, "ms"}
		m["shard.tax_ms"] = metric{math.Max(0, served-streamMs), "ms"}
		m["shard.allocs_per_run"] = metric{q("shard.allocs_per_run"), "count"}
		m["shard.insert_ms"] = metric{q("shard.insert_ms"), "ms"}
	}

	ladder := []layerRow{{"msserve", "http run", runMs, 0}}
	if sharded {
		ladder = append(ladder, layerRow{"shard", "shard.Prepared.StreamContextExplained", served, 0})
	}
	ladder = append(ladder,
		layerRow{"minesweeper", "PreparedQuery.StreamContext", streamMs, 0},
		layerRow{"engine", "engine.RunShaped", q("engine.run_ms"), 0},
		layerRow{"core", "core.MinesweeperStreamContext", q("core.run_ms"), 0},
	)
	for i := range ladder {
		below := 0.0
		if i+1 < len(ladder) {
			below = ladder[i+1].Q1Ms
		}
		ladder[i].SelfMs = math.Max(0, ladder[i].Q1Ms-below)
	}
	if err := tr.write(filepath.Join(e.root, ".bench_build", "trace.json"), w, o.seed, ladder); err != nil {
		return nil, err
	}
	return m, nil
}

// buildLadder is the set-up half of one iteration: relio parse, catalog
// load, query parse, plan, prepare, and the harness's own rebuild of
// the core problem under the plan's GAO (which times reltree.New).
func buildLadder(tr *tracer, req string, w *workload, texts [][]byte) (*ladderState, error) {
	st := &ladderState{cat: catalog.New()}
	var parse, build time.Duration
	for i := range w.rels {
		name := w.rels[i].name
		var err error
		_, d := tr.call(req, -1, "relio", "relio.ReadRelation", func() {
			_, err = relio.ReadRelation(bytes.NewReader(texts[i]), name)
		})
		if err != nil {
			return nil, err
		}
		parse += d
		tr.call(req, -1, "catalog", "catalog.Load", func() {
			_, err = st.cat.Load(bytes.NewReader(texts[i]), name)
		})
		if err != nil {
			return nil, err
		}
	}
	tr.add("relio.load_ms", ms(parse))

	var q *minesweeper.Query
	var err error
	_, d := tr.call(req, -1, "minesweeper", "catalog.Query", func() { q, err = st.cat.Query(w.query) })
	if err != nil {
		return nil, err
	}
	tr.add("minesweeper.parse_us", us(d))
	_, d = tr.call(req, -1, "planner", "Query.Explain", func() { _, err = q.Explain(nil) })
	if err != nil {
		return nil, err
	}
	tr.add("planner.plan_us", us(d))
	prep, d := tr.call(req, -1, "minesweeper", "Query.Prepare", func() { st.pq, err = q.Prepare(nil) })
	if err != nil {
		return nil, err
	}
	tr.add("minesweeper.prepare_ms", ms(d))

	gao := st.pq.GAO()
	pos := map[string]int{}
	for i, v := range gao {
		pos[v] = i
	}
	for _, v := range st.pq.OutputVars() {
		st.cols = append(st.cols, pos[v])
	}
	atoms := make([]core.Atom, len(w.rels))
	for i := range w.rels {
		r := &w.rels[i]
		positions, perm, err := core.ColumnPlan(gao, r.vars)
		if err != nil {
			return nil, err
		}
		permuted, err := core.PermuteTuples(perm, r.tuples)
		if err != nil {
			return nil, err
		}
		var tree *reltree.Tree
		_, d := tr.call(req, prep, "reltree", "reltree.New", func() { tree, err = reltree.New(r.name, len(perm), permuted) })
		if err != nil {
			return nil, err
		}
		build += d
		atoms[i] = core.Atom{Name: r.name, Tree: tree, Positions: positions}
	}
	tr.add("reltree.build_ms", ms(build))
	st.problem, err = core.NewProblemFromAtoms(gao, atoms)
	return st, err
}

// runRungs times one run at each rung of the ladder, outside-in, and
// returns the core run's work counters.
func runRungs(ctx context.Context, tr *tracer, req string, w *workload, orc *oracle, st *ladderState, fail func(string, error)) certificate.Stats {
	check := func(op string, n int, err error) {
		if err == nil && n != orc.base.count {
			err = fmt.Errorf("emitted %d tuples, want %d", n, orc.base.count)
		}
		fail(op, err)
	}
	var err error
	emit, n := countEmit()
	before := mallocs()
	top, d := tr.call(req, -1, "minesweeper", "PreparedQuery.StreamContext", func() { _, err = st.pq.StreamContext(ctx, emit) })
	tr.add("minesweeper.allocs_per_run", float64(mallocs()-before))
	tr.add("minesweeper.stream_ms", ms(d))
	check("stream", *n, err)

	ms2, _ := engine.Lookup("minesweeper")
	emit, n = countEmit()
	eng, d := tr.call(req, top, "engine", "engine.RunShaped", func() {
		err = engine.RunShaped(ctx, ms2.Run, st.problem.Snapshot(), nil, nil, emit)
	})
	tr.add("engine.run_ms", ms(d))
	check("engine", *n, err)

	var stats certificate.Stats
	emit, n = countEmit()
	_, d = tr.call(req, eng, "core", "core.MinesweeperStreamContext", func() {
		err = core.MinesweeperStreamContext(ctx, st.problem.Snapshot(), &stats, emit)
	})
	tr.add("core.run_ms", ms(d))
	check("core", *n, err)

	lf, _ := engine.Lookup("leapfrog")
	emit, n = countEmit()
	_, d = tr.call(req, top, "engine", "engine.RunShaped(leapfrog)", func() {
		err = engine.RunShaped(ctx, lf.Run, st.problem.Snapshot(), nil, nil, emit)
	})
	tr.add("engine.leapfrog_run_ms", ms(d))
	check("leapfrog", *n, err)
	return stats
}

// mutationRungs times a mutation block through the in-memory catalog:
// insert, the refresh that re-plans and re-binds, delete, refresh.
func mutationRungs(tr *tracer, req string, w *workload, st *ladderState, fail func(string, error)) {
	b := &w.batches[0]
	var err error
	_, d := tr.call(req, -1, "catalog", "Catalog.Insert", func() { _, err = st.cat.Insert(b.rel, b.tuples...) })
	tr.add("catalog.insert_ms", ms(d))
	fail("insert", err)
	_, d = tr.call(req, -1, "minesweeper", "PreparedQuery.Refresh", func() { err = st.pq.Refresh() })
	tr.add("minesweeper.refresh_ms", ms(d))
	fail("refresh", err)
	var removed int
	_, d = tr.call(req, -1, "catalog", "Catalog.Delete", func() { removed, _, err = st.cat.Delete(b.rel, b.tuples...) })
	tr.add("catalog.delete_ms", ms(d))
	if err == nil && removed != len(b.tuples) {
		err = fmt.Errorf("removed %d of %d tuples", removed, len(b.tuples))
	}
	fail("delete", err)
	_, d = tr.call(req, -1, "minesweeper", "PreparedQuery.Refresh", func() { err = st.pq.Refresh() })
	tr.add("minesweeper.refresh_ms", ms(d))
	fail("refresh", err)
}

// probeLoopRungs splits a Minesweeper-shaped run between its two leaf
// layers. The program offers no seam between core and the CDS or the
// index, so the harness runs its own outer loop — Algorithm 2 without
// the gap-exploration refinements — over the same indexes and a fresh
// cds.Tree, timing the FindGap section and the CDS section (constraint
// inserts plus the next GetProbePoint) of every probe point. It returns
// the tracing overhead: how much longer the loop takes with its two
// clock reads per probe point than without.
func probeLoopRungs(tr *tracer, req string, problem *core.Problem) float64 {
	const maxProbes = 50000                                // per-op times need a sample of the run, not all of it
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64} // fastest traced and plain loop
	for i := 0; i < 3; i++ {
		var stats certificate.Stats
		start := time.Now()
		gapBusy, cdsBusy := probeLoop(problem.Snapshot(), &stats, maxProbes, true)
		traced := time.Since(start)
		parent := tr.record(req, -1, "core", "probe loop", start, traced, 0)
		tr.record(req, parent, "reltree", "Tree.FindGap", start, gapBusy, stats.FindGaps)
		tr.record(req, parent, "cds", "Tree.InsConstraint+GetProbePoint", start, cdsBusy, stats.CDSOps)
		tr.add("reltree.findgap_ns", float64(gapBusy.Nanoseconds())/math.Max(float64(stats.FindGaps), 1))
		tr.add("cds.op_ns", float64(cdsBusy.Nanoseconds())/math.Max(float64(stats.CDSOps), 1))

		start = time.Now()
		probeLoop(problem.Snapshot(), nil, maxProbes, false)
		best[0], best[1] = min(best[0], traced), min(best[1], time.Since(start))
	}
	return 100 * (best[0].Seconds() - best[1].Seconds()) / best[1].Seconds()
}

// probeLoop is the harness's Minesweeper outer loop over the problem's
// indexes: take the CDS's next probe point, walk every atom's index
// along it with FindGap, and insert the first gap each atom finds (or
// rule the point out as an output). With timed set it returns the time
// spent in the FindGap section and in the CDS section.
func probeLoop(p *core.Problem, stats *certificate.Stats, maxProbes int, timed bool) (gapBusy, cdsBusy time.Duration) {
	n := len(p.GAO)
	tree := cds.NewTree(n)
	tree.SetStats(stats)
	p.Attach(stats)
	defer p.Detach()
	type found struct {
		atom, depth int
		lo, hi      int
	}
	var gaps []found
	idx := make([]int, 0, n)
	prefix := make(cds.Pattern, n)
	var mark time.Time
	if timed {
		mark = time.Now()
	}
	t := tree.GetProbePoint()
	for probes := 0; t != nil && probes < maxProbes; probes++ {
		if timed {
			now := time.Now()
			cdsBusy += now.Sub(mark)
			mark = now
		}
		gaps = gaps[:0]
		for ai := range p.Atoms {
			a := &p.Atoms[ai]
			idx = idx[:0]
			for d, gp := range a.Positions {
				lo, hi := a.Tree.FindGap(idx, t[gp])
				if lo != hi {
					gaps = append(gaps, found{ai, d, a.Tree.Value(append(idx, lo)), a.Tree.Value(append(idx, hi))})
					break
				}
				idx = append(idx, lo)
			}
		}
		if timed {
			now := time.Now()
			gapBusy += now.Sub(mark)
			mark = now
		}
		if len(gaps) == 0 {
			// An output tuple: rule out exactly t.
			for j := 0; j < n-1; j++ {
				prefix[j] = cds.Eq(t[j])
			}
			tree.InsConstraint(cds.Constraint{Prefix: prefix[:n-1], Lo: t[n-1] - 1, Hi: t[n-1] + 1})
		}
		for _, g := range gaps {
			a := &p.Atoms[g.atom]
			at := a.Positions[g.depth]
			for j := 0; j < at; j++ {
				prefix[j] = cds.Star
			}
			for _, gp := range a.Positions[:g.depth] {
				prefix[gp] = cds.Eq(t[gp])
			}
			tree.InsConstraint(cds.Constraint{Prefix: prefix[:at], Lo: g.lo, Hi: g.hi})
		}
		t = tree.GetProbePoint()
	}
	if timed {
		cdsBusy += time.Since(mark)
	}
	return gapBusy, cdsBusy
}

// storageRungs times the durable backend under the catalog: raw WAL
// appends with and without fsync, and crash-style recovery of a data
// directory holding the workload (OpenDurable replays, catalog.Open
// rebuilds the relations).
func storageRungs(e *env, tr *tracer, req string, w *workload, texts [][]byte, fail func(string, error)) error {
	b := &w.batches[0]
	rel := w.rel(b.rel)
	for _, fsync := range []bool{false, true} {
		d, err := storage.OpenDurable(e.dataDir("wal"), storage.Options{FsyncEach: fsync})
		if err != nil {
			return err
		}
		key := "storage.append_us"
		if fsync {
			key = "storage.append_fsync_us"
		}
		err = d.Append(&storage.Record{Op: storage.OpCreate, Name: rel.name, Vars: rel.vars})
		before := d.Stats().WALBytes
		const appends = 16
		for i := 0; i < appends && err == nil; i++ {
			_, took := tr.call(req, -1, "storage", "Durable.Append", func() {
				err = d.Append(&storage.Record{Op: storage.OpInsert, Name: rel.name, Epoch: uint64(i), Tuples: b.tuples})
			})
			tr.add(key, us(took))
		}
		if !fsync {
			tr.add("storage.wal_bytes_per_tuple", float64(d.Stats().WALBytes-before)/float64(appends*len(b.tuples)))
		}
		fail("append", err)
		d.Close()
	}

	dir := e.dataDir("recover")
	d, err := storage.OpenDurable(dir, storage.Options{})
	if err != nil {
		return err
	}
	cat, err := catalog.Open(d)
	if err != nil {
		return err
	}
	for i := range w.rels {
		if _, err := cat.Load(bytes.NewReader(texts[i]), w.rels[i].name); err != nil {
			return err
		}
	}
	if _, err := cat.Insert(b.rel, b.tuples...); err != nil {
		return err
	}
	// No Close: like kill -9, recovery starts from whatever the appends
	// left in the files.
	for i := 0; i < 3; i++ {
		var d2 *storage.Durable
		var err error
		rec, took := tr.call(req, -1, "storage", "storage.OpenDurable", func() { d2, err = storage.OpenDurable(dir, storage.Options{}) })
		if err != nil {
			return err
		}
		tr.add("storage.recover_ms", ms(took))
		var c2 *catalog.Catalog
		_, took = tr.call(req, rec, "catalog", "catalog.Open", func() { c2, err = catalog.Open(d2) })
		if err != nil {
			return err
		}
		tr.add("catalog.open_ms", ms(took))
		got, ok := c2.Get(b.rel)
		if want := len(rel.tuples) + len(b.tuples); !ok || got.Len() != want {
			fail("recover", fmt.Errorf("recovered %s is missing or short of %d tuples", b.rel, want))
		} else {
			fail("recover", nil)
		}
		d2.Close()
	}
	return nil
}

// shardRungs times the scatter-gather layer over in-memory fragments:
// always at one shard and one replica (its floor), and at the
// workload's own shard and replica counts when it is served sharded.
func shardRungs(ctx context.Context, tr *tracer, req string, w *workload, orc *oracle, texts [][]byte, fail func(string, error)) error {
	type config struct {
		shards, replicas int
		key              string
	}
	configs := []config{{1, 1, "shard.stream_n1_ms"}}
	if w.shards > 1 || w.replicas > 1 {
		configs = append(configs, config{w.shards, w.replicas, "shard.stream_ms"})
	}
	for _, cfg := range configs {
		sc := shard.NewReplicated(cfg.shards, cfg.replicas)
		for i := range w.rels {
			if _, err := sc.Load(bytes.NewReader(texts[i]), w.rels[i].name); err != nil {
				return err
			}
		}
		q, err := sc.Query(w.query)
		if err != nil {
			return err
		}
		sp, err := sc.Prepare(q, nil)
		if err != nil {
			return err
		}
		own := cfg.key == "shard.stream_ms"
		if own {
			for _, part := range sp.Explain().Partitions {
				if part == "gathered" {
					fail("shard.plan", fmt.Errorf("in-process plan is gathered, not sliced"))
				}
			}
		}
		fail("shard.stream", checkedRun(orc.base, identity(len(sp.OutputVars())), func(emit func([]int) bool) error {
			_, err := sp.StreamContextExplained(ctx, nil, emit)
			return err
		}))
		for i := 0; i < 5; i++ {
			emit, n := countEmit()
			before := mallocs()
			_, d := tr.call(req, -1, "shard", fmt.Sprintf("shard.Prepared.StreamContextExplained(N=%d,R=%d)", cfg.shards, cfg.replicas), func() {
				_, err = sp.StreamContextExplained(ctx, nil, emit)
			})
			if own {
				tr.add("shard.allocs_per_run", float64(mallocs()-before))
			}
			tr.add(cfg.key, ms(d))
			if err == nil && *n != orc.base.count {
				err = fmt.Errorf("emitted %d tuples, want %d", *n, orc.base.count)
			}
			fail("shard.stream", err)
		}
		if own {
			b := &w.batches[0]
			for i := 0; i < 3; i++ {
				_, d := tr.call(req, -1, "shard", "shard.Catalog.Insert", func() { _, err = sc.Insert(b.rel, b.tuples...) })
				tr.add("shard.insert_ms", ms(d))
				fail("shard.insert", err)
				_, _, err = sc.Delete(b.rel, b.tuples...)
				fail("shard.delete", err)
			}
		}
	}
	return nil
}
