package esuite

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// smallRows runs an experiment at Small once per test binary, so the
// shape tests, the table test and the counter golden share one run.
func smallRows(t *testing.T, key string) []Row {
	t.Helper()
	e := Find(key)
	if e == nil {
		t.Fatalf("no experiment %q", key)
	}
	smallCache.mu.Lock()
	defer smallCache.mu.Unlock()
	if res, ok := smallCache.rows[key]; ok {
		if res.err != nil {
			t.Fatalf("%s: %v", key, res.err)
		}
		return res.rows
	}
	rows, err := e.Run(Small)
	smallCache.rows[key] = smallResult{rows, err}
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return rows
}

type smallResult struct {
	rows []Row
	err  error
}

var smallCache = struct {
	mu   sync.Mutex
	rows map[string]smallResult
}{rows: map[string]smallResult{}}

// --- the registry itself ------------------------------------------------

func TestAllRegistered(t *testing.T) {
	ids, keys, names := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Key == "" || e.Title == "" || e.Claim == "" || len(e.Cases) == 0 {
			t.Errorf("experiment %q/%q: incomplete metadata", e.ID, e.Key)
		}
		if ids[e.ID] || keys[e.Key] {
			t.Errorf("duplicate experiment %s/%s", e.ID, e.Key)
		}
		ids[e.ID], keys[e.Key] = true, true
		for _, c := range e.Cases {
			if c.Name == "" || c.Setup == nil {
				t.Errorf("%s: case %q incomplete", e.Key, c.Name)
			}
			if names[c.Name] {
				t.Errorf("duplicate case name %q", c.Name)
			}
			names[c.Name] = true
			if !c.Small && !c.Full && !c.Tracked {
				t.Errorf("case %q belongs to no scale and is not tracked: nothing runs it", c.Name)
			}
		}
	}
	for i := 1; i <= 17; i++ {
		if id := fmt.Sprintf("E%d", i); !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	for _, want := range []string{"fig2", "betaacyclic", "appj", "intersect", "bowtie", "triangle",
		"treewidth", "memo", "gao", "gaoquality", "longpath", "micro"} {
		if !keys[want] {
			t.Errorf("missing experiment key %q", want)
		}
	}
	if keys["counters"] || keys["all"] {
		t.Error("experiment keys 'counters' and 'all' are reserved by msbench -exp")
	}
}

func TestEveryExperimentRunsSmall(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Key, func(t *testing.T) {
			rows := smallRows(t, e.Key)
			if len(rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			if err := WriteTable(&buf, e, rows); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(buf.String(), "\n")
			if len(lines) < 5 || !strings.HasPrefix(lines[0], "== "+e.ID) || !strings.Contains(buf.String(), "claim: ") {
				t.Fatalf("malformed table:\n%s", buf.String())
			}
		})
	}
}

// retiredCases are the benchmark names committed BENCH_<n>.json files
// hold for code that is gone, each with the reason; `msbench -compare`
// skips their rows on purpose.
var retiredCases = map[string]string{
	"SetIntersectionMergeVariant": "Appendix H.2's k-way merge was deleted: set intersection runs on the general engine (SetIntersectionInterleaved)",
}

// TestTrajectoryNamesStillTracked: every benchmark name a committed
// BENCH_<n>.json holds must still be a tracked case, or be listed in
// retiredCases, or `msbench -compare` silently loses the row.
func TestTrajectoryNamesStillTracked(t *testing.T) {
	tracked := map[string]bool{}
	for _, e := range Experiments() {
		for _, c := range e.Cases {
			if c.Tracked {
				tracked[c.Name] = true
			}
		}
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json at the repo root (err %v)", err)
	}
	for _, path := range files {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadJSON(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, b := range f.Benchmarks {
			if _, retired := retiredCases[b.Name]; !tracked[b.Name] && !retired {
				t.Errorf("%s: benchmark %q is no longer a tracked case", filepath.Base(path), b.Name)
			}
		}
	}
}

// TestCountersGolden is the repo's gate on certificate work: the exact
// counters of every sequential case at Small must equal the committed
// golden byte for byte. A change that moves them on purpose regenerates
// the file and shows the diff in review.
func TestCountersGolden(t *testing.T) {
	var rows []Row
	for _, e := range Experiments() {
		rows = append(rows, smallRows(t, e.Key)...)
	}
	var got bytes.Buffer
	if err := WriteCounters(&got, rows); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/counters.golden")
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffCounters(string(want), got.String()); diff != "" {
		header, _, _ := strings.Cut(got.String(), "\n")
		t.Fatalf("certificate counters differ from testdata/counters.golden (- golden, + this run):\n  %s\n%s\n"+
			"If the change is intended, regenerate from the repo root and commit the diff:\n"+
			"  go run ./cmd/msbench -exp counters -scale small > internal/esuite/testdata/counters.golden", header, diff)
	}
}

// diffCounters lists the lines of two counter tables that differ,
// matched by case name.
func diffCounters(want, got string) string {
	index := func(s string) (map[string]string, []string) {
		byName, order := map[string]string{}, []string(nil)
		for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			name, _, _ := strings.Cut(line, " ")
			byName[name] = line
			order = append(order, name)
		}
		return byName, order
	}
	wantBy, wantOrder := index(want)
	gotBy, gotOrder := index(got)
	var b strings.Builder
	for _, name := range wantOrder {
		if g, ok := gotBy[name]; !ok {
			fmt.Fprintf(&b, "- %s\n", wantBy[name])
		} else if g != wantBy[name] {
			fmt.Fprintf(&b, "- %s\n+ %s\n", wantBy[name], g)
		}
	}
	for _, name := range gotOrder {
		if _, ok := wantBy[name]; !ok {
			fmt.Fprintf(&b, "+ %s\n", gotBy[name])
		}
	}
	if b.Len() == 0 && want != got {
		return "(same lines, different order or spacing)"
	}
	return b.String()
}

func TestDiffCountersIsReadable(t *testing.T) {
	want := "case probes\nA 1\nB 2\nC 3\n"
	got := "case probes\nA 1\nB 5\nD 4\n"
	const wantDiff = "- B 2\n+ B 5\n- C 3\n+ D 4\n"
	if d := diffCounters(want, got); d != wantDiff {
		t.Fatalf("diff = %q, want %q", d, wantDiff)
	}
	if d := diffCounters(want, want); d != "" {
		t.Fatalf("equal tables diff = %q", d)
	}
}

// BenchmarkSuite runs every tracked case through the one generic loop:
//
//	go test -run '^$' -bench Suite -benchmem ./internal/esuite
//	go test -run '^$' -bench 'Suite/ClusteredBand' ./internal/esuite
func BenchmarkSuite(b *testing.B) {
	for _, e := range Experiments() {
		for i := range e.Cases {
			if c := &e.Cases[i]; c.Tracked {
				b.Run(c.Name, func(b *testing.B) { Bench(b, c) })
			}
		}
	}
}

// --- the paper's shapes, asserted on typed rows -------------------------

// TestFigure2Shape verifies the paper's headline phenomenon at small
// scale: the measured certificate is much smaller than the input on every
// dataset × query combination.
func TestFigure2Shape(t *testing.T) {
	rows := smallRows(t, "fig2")
	if len(rows) != 12 {
		t.Fatalf("expected 12 rows (3 queries × (3 datasets + the tracked instance)), got %d", len(rows))
	}
	for _, r := range rows {
		c := r.Stats.CertificateEstimate()
		if c <= 0 || r.N <= 0 {
			t.Fatalf("degenerate row %s: N=%d |C|=%d", r.Name, r.N, c)
		}
		if c*2 > r.N {
			t.Errorf("%s: |C|=%d not well below N=%d", r.Name, c, r.N)
		}
	}
}

// TestBetaAcyclicLinearity: probe counts on the Appendix J family must
// grow sub-quadratically in M (the theorem says linearly; allow slack).
func TestBetaAcyclicLinearity(t *testing.T) {
	rows := smallRows(t, "betaacyclic")
	first, last := rows[0], rows[len(rows)-1]
	growth := (float64(last.Stats.ProbePoints) / float64(first.Stats.ProbePoints)) /
		(float64(last.Num("M")) / float64(first.Num("M")))
	if growth > 3 {
		t.Fatalf("probe growth %.2fx per M-doubling factor: not linear (%s: %d → %s: %d)",
			growth, first.Name, first.Stats.ProbePoints, last.Name, last.Stats.ProbePoints)
	}
}

// TestTriangleSeparation: the generic/special CDS-work ratio must widen
// as K grows (Θ(K²) vs Õ(K)).
func TestTriangleSeparation(t *testing.T) {
	rows := smallRows(t, "triangle") // (special, generic) pairs by ascending K
	ratio := func(special, generic Row) float64 {
		if special.Num("K") != generic.Num("K") {
			t.Fatalf("rows %s and %s are not a pair", special.Name, generic.Name)
		}
		return float64(generic.Stats.CDSOps) / float64(special.Stats.CDSOps)
	}
	first, last := ratio(rows[0], rows[1]), ratio(rows[len(rows)-2], rows[len(rows)-1])
	if !(last > first) {
		t.Fatalf("separation not widening: generic/special %.1f at K=%d, %.1f at K=%d",
			first, rows[0].Num("K"), last, rows[len(rows)-1].Num("K"))
	}
}

// TestTreewidthGrowth: within the interval-only w=2 rows, CDS backtracks
// grow superlinearly in m (Proposition 5.3's Ω(m^w) cost), while full
// probes stay ~linear.
func TestTreewidthGrowth(t *testing.T) {
	var w2 []Row
	for _, r := range smallRows(t, "treewidth") {
		if r.Num("w") == 2 && r.Label("cds") == "interval-only" {
			w2 = append(w2, r)
		}
	}
	if len(w2) < 2 {
		t.Fatal("need at least two w=2 rows")
	}
	first, last := w2[0], w2[len(w2)-1]
	mGrowth := float64(last.Num("m")) / float64(first.Num("m"))
	if b0, b1 := first.Stats.Backtracks, last.Stats.Backtracks; float64(b1)/float64(b0) < 1.5*mGrowth {
		t.Fatalf("backtracks grow like m, expected ~m²: %d → %d for m %d → %d", b0, b1, first.Num("m"), last.Num("m"))
	}
	if p0, p1 := first.Stats.ProbePoints, last.Stats.ProbePoints; float64(p1)/float64(p0) > 2.5*mGrowth {
		t.Fatalf("probes %d → %d grew superlinearly in m %d → %d; expected ~m", p0, p1, first.Num("m"), last.Num("m"))
	}
}

// TestGAODependenceShape: under (C,A,B) the FindGap count must be far
// below the (A,B,C) count at the largest n.
func TestGAODependenceShape(t *testing.T) {
	rows := smallRows(t, "gao")
	abc, cab := rows[len(rows)-2], rows[len(rows)-1]
	if abc.Num("n") != cab.Num("n") || abc.Label("GAO") != "[A B C]" || cab.Label("GAO") != "[C A B]" {
		t.Fatalf("last rows are not the two orders of one n: %s, %s", abc.Name, cab.Name)
	}
	if !(cab.Stats.FindGaps*2 < abc.Stats.FindGaps) {
		t.Fatalf("(C,A,B) findgaps %d not well below (A,B,C) %d", cab.Stats.FindGaps, abc.Stats.FindGaps)
	}
}

// TestBowtieFlat: probes must not grow with N on the O(1)-certificate
// family.
func TestBowtieFlat(t *testing.T) {
	rows := smallRows(t, "bowtie")
	p0, p1 := rows[0].Stats.ProbePoints, rows[len(rows)-1].Stats.ProbePoints
	if p1 > 2*p0+4 {
		t.Fatalf("bow-tie probes grew with N: %d → %d", p0, p1)
	}
}

// TestIntersectionContrast: interleaved probes must dwarf block probes.
func TestIntersectionContrast(t *testing.T) {
	byFam := map[string]int64{}
	for _, r := range smallRows(t, "intersect") {
		byFam[r.Label("family")] += r.Stats.ProbePoints
	}
	if !(byFam["blocks"]*10 < byFam["interleaved"]) {
		t.Fatalf("blocks=%d interleaved=%d: expected >10x contrast", byFam["blocks"], byFam["interleaved"])
	}
}

// TestMemoizationQuadratic: with memoization, ops/N² must stay flat; the
// ablated CDS must grow strictly faster than quadratic.
func TestMemoizationQuadratic(t *testing.T) {
	rows := smallRows(t, "memo") // (memo, no-memo) pairs by ascending N
	opsPerN2 := func(r Row, memo string) float64 {
		if r.Label("memo") != memo {
			t.Fatalf("row %s: memo = %s, want %s", r.Name, r.Label("memo"), memo)
		}
		return float64(r.Stats.CDSOps) / float64(r.Num("N")*r.Num("N"))
	}
	firstMemo, lastMemo := opsPerN2(rows[0], "true"), opsPerN2(rows[len(rows)-2], "true")
	if lastMemo > 6*firstMemo {
		t.Fatalf("memo ops/N² grew from %.1f to %.1f: memoization not quadratic", firstMemo, lastMemo)
	}
	firstRaw, lastRaw := opsPerN2(rows[1], "false"), opsPerN2(rows[len(rows)-1], "false")
	if lastRaw < 1.5*firstRaw {
		t.Fatalf("ablated ops/N² flat (%.1f → %.1f): ablation not superquadratic?", firstRaw, lastRaw)
	}
}

// TestGAOQualityShape: the non-nested order must cost more CDS work.
// (Setup itself fails if the hypergraph disagrees with the nestedness
// the registry declares for either order.)
func TestGAOQualityShape(t *testing.T) {
	rows := smallRows(t, "gaoquality")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label("nested") != "true" || rows[1].Label("nested") != "false" {
		t.Fatalf("nestedness flags wrong: %s, %s", rows[0].Label("nested"), rows[1].Label("nested"))
	}
	if nested, bad := rows[0].Stats.CDSOps, rows[1].Stats.CDSOps; bad <= nested {
		t.Fatalf("non-nested order should cost more CDS work: %d vs %d", bad, nested)
	}
}

// TestLayeredPathShape: Minesweeper's work must stay far below NPRR's on
// the no-ℓ-path family.
func TestLayeredPathShape(t *testing.T) {
	var minesweeper, nprr int64
	for _, r := range smallRows(t, "longpath") {
		if r.Z != 0 {
			t.Errorf("%s found %d tuples on an instance with no ℓ-path", r.Name, r.Z)
		}
		switch r.Label("engine") {
		case "minesweeper":
			minesweeper += r.Stats.ProbePoints
		case "nprr":
			nprr += r.Stats.Comparisons
		}
	}
	if !(minesweeper*10 < nprr) {
		t.Fatalf("minesweeper probes=%d nprr comparisons=%d: expected >10x gap", minesweeper, nprr)
	}
}

// TestSystemClaims asserts the counter half of the E10–E13 claims.
func TestSystemClaims(t *testing.T) {
	byName := map[string]Row{}
	for _, key := range []string{"pushdown", "aggregate", "planner", "clustered"} {
		for _, r := range smallRows(t, key) {
			byName[r.Name] = r
		}
	}
	probes := func(name string) int64 { return byName[name].Stats.ProbePoints }
	for _, c := range []struct{ cheap, dear string }{
		{"SelectivePushdown/sel=1%", "SelectivePostFilter"},
		{"SparseSkew/Planned", "SparseSkew/Default"},
		{"ClusteredBand/Boxes", "ClusteredBand/IntervalOnly"},
		{"ClusteredOverlap/Boxes", "ClusteredOverlap/IntervalOnly"},
	} {
		if !(probes(c.cheap) > 0 && probes(c.cheap)*10 < probes(c.dear)) {
			t.Errorf("%s probes %d not 10x below %s probes %d", c.cheap, probes(c.cheap), c.dear, probes(c.dear))
		}
	}
	// Under the planned order the suffix walk enumerates the heavy output
	// after one probe with or without the dictionary, so the two planned
	// runs tie on probes; the dictionary still pays off in the phantom
	// gaps it removes, and must keep doing so on every gap counter.
	raw, dict := byName["SparseHeavyEnum/PlannedRaw"].Stats, byName["SparseHeavyEnum/Planned"].Stats
	if !(dict.ProbePoints <= raw.ProbePoints && dict.Constraints < raw.Constraints &&
		dict.FindGaps < raw.FindGaps && dict.CDSOps < raw.CDSOps) {
		t.Errorf("SparseHeavyEnum: the dictionary does not cut gap work (Planned vs PlannedRaw): "+
			"probes %d vs %d, constraints %d vs %d, findgaps %d vs %d, cdsops %d vs %d",
			dict.ProbePoints, raw.ProbePoints, dict.Constraints, raw.Constraints,
			dict.FindGaps, raw.FindGaps, dict.CDSOps, raw.CDSOps)
	}
	if !(probes("SparseHeavyEnum/PlannedRaw")*10 < probes("SparseHeavyEnum/Default")) {
		t.Errorf("SparseHeavyEnum/PlannedRaw probes %d not 10x below Default probes %d",
			probes("SparseHeavyEnum/PlannedRaw"), probes("SparseHeavyEnum/Default"))
	}
	if agg, join := byName["AggregateGroupCount"].Stats, byName["SelectivePostFilter"].Stats; agg != join {
		t.Errorf("aggregation changed the certificate work of the join: %+v vs %+v", agg, join)
	}
}

// TestParallelClaim: the morsel executor changes no output, and on these
// inputs what each morsel re-learns only adds to the sequential work.
func TestParallelClaim(t *testing.T) {
	seq := map[string]Row{}
	for _, r := range smallRows(t, "parallel") {
		key := r.Label("input") + "/" + r.Label("engine")
		if r.Num("workers") == 1 {
			seq[key] = r
			continue
		}
		s, ok := seq[key]
		if !ok {
			t.Fatalf("%s: no workers=1 row before it", r.Name)
		}
		if r.Z != s.Z || r.Z == 0 {
			t.Errorf("%s: %d outputs, workers=1 has %d", r.Name, r.Z, s.Z)
		}
		if r.Stats.FindGaps < s.Stats.FindGaps {
			t.Errorf("%s: %d findgaps, below the sequential %d", r.Name, r.Stats.FindGaps, s.Stats.FindGaps)
		}
	}
}
