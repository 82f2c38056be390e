package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minesweeper"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRelation(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "r.rel", "R: A B\n1 2\n3 4\n")
	atom, err := loadRelation(path)
	if err != nil {
		t.Fatal(err)
	}
	if atom.Rel.Name() != "R" || atom.Rel.Arity() != 2 || atom.Rel.Len() != 2 {
		t.Fatalf("relation: %s/%d/%d", atom.Rel.Name(), atom.Rel.Arity(), atom.Rel.Len())
	}
	if len(atom.Vars) != 2 || atom.Vars[0] != "A" || atom.Vars[1] != "B" {
		t.Fatalf("vars = %v", atom.Vars)
	}
}

func TestLoadRelationErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadRelation(filepath.Join(dir, "missing.rel")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := writeFile(t, dir, "bad.rel", "no header here\n")
	if _, err := loadRelation(bad); err == nil {
		t.Fatal("headerless file must error")
	}
	ragged := writeFile(t, dir, "ragged.rel", "R: A B\n1\n")
	if _, err := loadRelation(ragged); err == nil {
		t.Fatal("ragged row must error")
	}
}

func TestLoadRelationJoinsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rp := writeFile(t, dir, "r.rel", "R: A B\n1 2\n2 3\n")
	sp := writeFile(t, dir, "s.rel", "S: B C\n2 5\n3 7\n")
	ra, err := loadRelation(rp)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := loadRelation(sp)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Rel.Len() != 2 || sa.Rel.Len() != 2 {
		t.Fatal("relations not loaded")
	}
}

// TestShapingFlagsEndToEnd mirrors main's -select/-where wiring: loaded
// relations, clause parsing, prepared execution.
func TestShapingFlagsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rp := writeFile(t, dir, "r.rel", "R: A B\n1 2\n2 3\n4 3\n")
	sp := writeFile(t, dir, "s.rel", "S: B C\n2 5\n3 7\n")
	ra, err := loadRelation(rp)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := loadRelation(sp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := minesweeper.NewQuery(ra, sa)
	if err != nil {
		t.Fatal(err)
	}
	sel, aggs, err := minesweeper.ParseSelect("B, count(*)")
	if err != nil {
		t.Fatal(err)
	}
	where, err := minesweeper.ParseWhere("A < 4")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(&minesweeper.Options{Select: sel, Aggregates: aggs, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	if got := pq.OutputVars(); len(got) != 2 || got[1] != "count(*)" {
		t.Fatalf("OutputVars = %v", got)
	}
	res, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Join (A,B,C): (1,2,5),(2,3,7),(4,3,7); A<4 drops the last. Groups:
	// B=2 count 1, B=3 count 1.
	if !reflect.DeepEqual(res.Tuples, [][]int{{2, 1}, {3, 1}}) {
		t.Fatalf("rows = %v", res.Tuples)
	}
}

// TestExplainFlag mirrors main's -explain wiring: relations loaded from
// files, the query prepared, and the plan line formatted. The skewed
// sparse instance makes the planner override the structural order and
// dictionary-encode the sparse attributes, so every field of the line
// is exercised.
func TestExplainFlag(t *testing.T) {
	dir := t.TempDir()
	var rBuf, sBuf strings.Builder
	rBuf.WriteString("R: A B\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&rBuf, "%d %d\n", i*10007+7, i*10007+3)
	}
	sBuf.WriteString("S: B C\n")
	for j := 0; j < 20; j++ {
		fmt.Fprintf(&sBuf, "%d %d\n", (j*11+5)*10007+1, j)
	}
	rp := writeFile(t, dir, "r.rel", rBuf.String())
	sp := writeFile(t, dir, "s.rel", sBuf.String())
	ra, err := loadRelation(rp)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := loadRelation(sp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := minesweeper.NewQuery(ra, sa)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := q.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	line := formatExplain(pq.Explain())
	for _, want := range []string{"-- explain: gao=", "width=1", "cost=", "planned=true", "engine=minesweeper", "dict="} {
		if !strings.Contains(line, want) {
			t.Errorf("explain line %q missing %q", line, want)
		}
	}
	// A forced GAO is reported verbatim and never marked planned.
	pqForced, err := q.Prepare(&minesweeper.Options{GAO: []string{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	forced := formatExplain(pqForced.Explain())
	// Under [A B C] the two atoms meet on B, so only C is walked.
	if !strings.Contains(forced, "gao=A,B,C") || !strings.Contains(forced, "planned=false") || !strings.Contains(forced, "suffix_from=2") {
		t.Errorf("forced explain line %q", forced)
	}
}
