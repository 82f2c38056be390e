package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"minesweeper/internal/dataset"
)

// relation is one generated input relation: its name, default variable
// binding and tuples.
type relation struct {
	name   string
	vars   []string
	tuples [][]int
}

// relio renders the relation in the text format msserve loads.
func (r *relation) relio() []byte {
	var b bytes.Buffer
	b.WriteString(r.name)
	b.WriteByte(':')
	for _, v := range r.vars {
		b.WriteByte(' ')
		b.WriteString(v)
	}
	b.WriteByte('\n')
	var num []byte
	for _, t := range r.tuples {
		for i, v := range t {
			if i > 0 {
				b.WriteByte(' ')
			}
			num = strconv.AppendInt(num[:0], int64(v), 10)
			b.Write(num)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// batch is one mutation block: tuples absent from the base data that
// the schedule inserts into rel and deletes again.
type batch struct {
	rel    string
	tuples [][]int
}

// workload is one benchmark workload: the generated inputs, the
// registered query and the msserve configuration it is served under.
type workload struct {
	name     string
	query    string
	rels     []relation
	batches  []batch // rotating pool; the data is back at base after each block
	shards   int
	replicas int
	fsync    bool

	// Round contents, sized so a round fills about two thirds of its
	// slot on the builder's box: timed warm runs and mutation blocks per
	// round, and every how many rounds a from-scratch set-up and a crash
	// recovery follow the round.
	timedRuns, blocks        int
	setupEvery, recoverEvery int
}

// tuplesTotal is the number of live tuples at base state.
func (w *workload) tuplesTotal() int {
	n := 0
	for i := range w.rels {
		n += len(w.rels[i].tuples)
	}
	return n
}

func (w *workload) rel(name string) *relation {
	for i := range w.rels {
		if w.rels[i].name == name {
			return &w.rels[i]
		}
	}
	return nil
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"out_bound", "scatter", "cert_bound", "churn"}

// scale holds the data sizes of one -scale setting.
type scale struct {
	// out_bound / scatter: the side of the square value domain and the
	// degree of every value (tuples per relation = pairDom·pairDeg).
	pairDom, pairDeg int
	// cert_bound: interleaved blocks per join attribute, tuples per
	// block, full chains (= output tuples) and R–S half matches.
	blocks, perBlock, chains, halves int
	// churn: vertices and out-degree of the three power-law graphs, and
	// the edge count each is cut to.
	graphN, graphDeg, graphEdges int
	// mutation batch sizes: tuples (out_bound, scatter, cert_bound) and
	// matchings over all vertices (churn).
	batchSmall, churnLayers int
}

var scales = map[string]scale{
	"full": {
		pairDom: 1500, pairDeg: 4,
		blocks: 30000, perBlock: 10, chains: 1000, halves: 2000,
		graphN: 800, graphDeg: 4, graphEdges: 3000,
		batchSmall: 256, churnLayers: 3,
	},
	"smoke": {
		pairDom: 100, pairDeg: 3,
		blocks: 120, perBlock: 10, chains: 20, halves: 40,
		graphN: 100, graphDeg: 3, graphEdges: 250,
		batchSmall: 16, churnLayers: 1,
	},
}

// buildWorkload generates every input of the named workload from the
// seed: the same seed gives the same relations and mutation batches.
func buildWorkload(name string, sc scale, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "out_bound", "scatter":
		// The two share data, query, seed and batches; only the serving
		// configuration differs, so every gap between them is the
		// scatter-gather and replication tax.
		w := pairWorkload(rng, sc)
		w.name = name
		w.shards, w.replicas = 1, 1
		if name == "scatter" {
			w.shards, w.replicas = 2, 2
		}
		return w, nil
	case "cert_bound":
		return certWorkload(rng, sc), nil
	case "churn":
		return churnWorkload(rng, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// matching draws n pairs over [0,dom)² in which no left and no right
// value repeats and none is in seen, adding them to seen. Layers of
// matchings give relations in which every value has the same degree, so
// the planner's statistics — and with them the plan and the output
// size — are the same for every seed; only the pairing is random.
func matching(rng *rand.Rand, n, dom int, seen map[[2]int]bool) [][]int {
	left, right := rng.Perm(dom)[:n], rng.Perm(dom)[:n]
	for i := range left {
		// Swap a clashing right value with one that leaves both pairs new.
		for seen[[2]int{left[i], right[i]}] {
			j := rng.Intn(n)
			if !seen[[2]int{left[i], right[j]}] && !seen[[2]int{left[j], right[i]}] {
				right[i], right[j] = right[j], right[i]
			}
		}
	}
	out := make([][]int, n)
	for i := range left {
		seen[[2]int{left[i], right[i]}] = true
		out[i] = []int{left[i], right[i]}
	}
	return out
}

// pairWorkload is the output-bound two-atom join: R(A,B) ⋈ S(B,C) over
// random pairs in which every value has degree pairDeg, so
// Z = pairDom·pairDeg² — four times the input at full scale — and
// emit, encode and flush per tuple are most of a run.
func pairWorkload(rng *rand.Rand, sc scale) *workload {
	seenR, seenS := map[[2]int]bool{}, map[[2]int]bool{}
	w := &workload{query: "R(A,B), S(B,C)", timedRuns: 8, blocks: 2, setupEvery: 1, recoverEvery: 1}
	var r, s [][]int
	for k := 0; k < sc.pairDeg; k++ {
		r = append(r, matching(rng, sc.pairDom, sc.pairDom, seenR)...)
		s = append(s, matching(rng, sc.pairDom, sc.pairDom, seenS)...)
	}
	w.rels = []relation{
		{name: "R", vars: []string{"A", "B"}, tuples: r},
		{name: "S", vars: []string{"B", "C"}, tuples: s},
	}
	for i := 0; i < 2; i++ {
		w.batches = append(w.batches,
			batch{"R", matching(rng, sc.batchSmall, sc.pairDom, seenR)},
			batch{"S", matching(rng, sc.batchSmall, sc.pairDom, seenS)})
	}
	return w
}

// certWorkload is the certificate-bound β-acyclic path
// R(A,B) ⋈ S(B,C) ⋈ T(C,D). The join attributes are laid out in
// interleaved blocks (the layout of dataset.BlockSets and
// dataset.AppendixJPath): on B the even blocks hold R's values and the
// odd blocks S's, on C the even blocks hold S's and the odd blocks T's,
// so almost every tuple is ruled out by a gap and |C| ≫ Z. A fixed
// number of full chains gives the output, and R–S half matches add
// dead ends that reach S before a C gap rules them out. Every chain
// sits in the upper two thirds of B, so the first output tuple costs a
// third of the gap work, not a wake-up.
//
// Domains stay dense (span < 4 × distinct), so the planner's automatic
// dictionary encoding stays off and the in-process ladder can rebuild
// the exact problem msserve runs.
func certWorkload(rng *rand.Rand, sc scale) *workload {
	width := sc.perBlock * 3 / 2 // values per block
	pairs := sc.blocks / 2
	n := pairs * sc.perBlock
	// Distinct join values per owner: perBlock random offsets per block;
	// free are the values of the owner's blocks left unused.
	pick := func(parity int) (vals, free []int) {
		for k := 0; k < pairs; k++ {
			base := (2*k + parity) * width
			for i, off := range rng.Perm(width) {
				if i < sc.perBlock {
					vals = append(vals, base+off)
				} else {
					free = append(free, base+off)
				}
			}
		}
		return vals, free
	}
	rB, rFree := pick(0)
	sB, _ := pick(1)
	sC, _ := pick(0)
	tC, _ := pick(1)
	// A and D are keys but for one value that occurs heavy times. The
	// planner then sees the same statistics whatever the seed, and the
	// heavy value keeps its cost model well away from a tie between the
	// B-first order and the (here 12 times slower) A-first one, which an
	// insert of a few hundred tuples could otherwise flip.
	const heavy = 8
	r := make([][]int, n)
	s := make([][]int, n)
	t := make([][]int, n)
	as, ds := rng.Perm(n), rng.Perm(n)
	for i := 0; i < n; i++ {
		r[i] = []int{as[max(i, heavy-1)], rB[i]}
		t[i] = []int{tC[i], ds[max(i, heavy-1)]}
	}
	for i, j := range rng.Perm(n) {
		s[i] = []int{sB[i], sC[j]}
	}
	// Matches reuse S's own (distinct) B and C values, so each full
	// chain yields exactly one output tuple. sB ascends, so skipping the
	// first third of S skips the lower third of the B domain.
	for i, off := range rng.Perm(n - n/3)[:sc.chains+sc.halves] {
		si := n/3 + off
		r = append(r, []int{n + i, s[si][0]})
		if i < sc.chains {
			t = append(t, []int{s[si][1], n + i})
		}
	}
	fresh := n + sc.chains + sc.halves // first unused A value
	w := &workload{name: "cert_bound", query: "R(A,B), S(B,C), T(C,D)", shards: 1, replicas: 1,
		timedRuns: 4, blocks: 1, setupEvery: 4, recoverEvery: 4}
	w.rels = []relation{
		{name: "R", vars: []string{"A", "B"}, tuples: r},
		{name: "S", vars: []string{"B", "C"}, tuples: s},
		{name: "T", vars: []string{"C", "D"}, tuples: t},
	}
	// Batches add unmatched tuples to R at unused values of R's own
	// blocks: they move gaps, not outputs, and leave every column's
	// maximum frequency — the statistic the plan is most sensitive to —
	// as it was. Their A values are unused so far.
	rng.Shuffle(len(rFree), func(i, j int) { rFree[i], rFree[j] = rFree[j], rFree[i] })
	for i := 0; i < 4; i++ {
		b := batch{rel: "R"}
		for j := 0; j < sc.batchSmall; j++ {
			k := i*sc.batchSmall + j
			b.tuples = append(b.tuples, []int{fresh + k, rFree[k]})
		}
		w.batches = append(w.batches, b)
	}
	return w
}

// churnWorkload is the β-cyclic triangle R(A,B) ⋈ S(B,C) ⋈ T(A,C) over
// three power-law edge sets, served with fsync on and three mutation
// blocks a round, one per relation. A run is short, so
// WAL append and fsync, catalog apply, compaction and index rebuild
// dominate a round; it is also the only workload on the general
// (non-chain) CDS path.
//
// The three topologies are fixed and the seed draws the vertex
// labelling: the general CDS path is so sensitive to the degree
// sequence that three fresh power-law graphs per seed move a run by
// ±20 %, where a relabelling moves it by ±3 %. Every edge set is cut to
// the same length and every vertex id has five digits, so the bytes
// each mutation appends — and with them the rounds at which the WAL
// compacts — are the same for every seed.
func churnWorkload(rng *rand.Rand, sc scale) *workload {
	const idBase = 10000
	w := &workload{name: "churn", query: "R(A,B), S(B,C), T(A,C)", shards: 1, replicas: 1, fsync: true,
		timedRuns: 8, blocks: 3, setupEvery: 1, recoverEvery: 1}
	label := rng.Perm(sc.graphN)
	relabel := func(edges [][]int) [][]int {
		for _, e := range edges {
			e[0], e[1] = idBase+label[e[0]], idBase+label[e[1]]
		}
		return edges
	}
	specs := []struct {
		name string
		vars []string
	}{{"R", []string{"A", "B"}}, {"S", []string{"B", "C"}}, {"T", []string{"A", "C"}}}
	seen := make([]map[[2]int]bool, len(specs))
	for i, sp := range specs {
		g := dataset.PowerLawGraph(sc.graphN, sc.graphDeg, false, int64(i+1))
		edges := g.Edges[:min(sc.graphEdges, len(g.Edges))]
		seen[i] = make(map[[2]int]bool, len(edges))
		for _, e := range edges {
			seen[i][[2]int{e[0], e[1]}] = true
		}
		w.rels = append(w.rels, relation{name: sp.name, vars: sp.vars, tuples: relabel(edges)})
	}
	// A batch is churnLayers matchings over all vertices: every degree
	// grows by the same amount, so the statistics after an insert do not
	// depend on the seed either.
	for i := 0; i < 6; i++ {
		k := i % len(specs)
		var tuples [][]int
		for l := 0; l < sc.churnLayers; l++ {
			tuples = append(tuples, matching(rng, sc.graphN, sc.graphN, seen[k])...)
		}
		w.batches = append(w.batches, batch{specs[k].name, relabel(tuples)})
	}
	return w
}
