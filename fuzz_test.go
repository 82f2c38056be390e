package minesweeper

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseQuery feeds arbitrary strings to the query parser; it must
// never panic and must only succeed on inputs that round-trip into a
// well-formed query.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"R(A,B), S(B,C)",
		"R(A,B) ⋈ S(B,C)",
		"R(A,B)(",
		"R(,)",
		"⋈⋈⋈",
		"R (A , B)   S(B,C)",
		strings.Repeat("R(A,B),", 50),
		"Unknown(X)",
		// Extended grammar: constants, select/where clauses, aggregates.
		"R(A, 2), S(2, C)",
		"R(A, 99999999999999999999)",
		"R(A,B) select A, count(*), sum(B) where A < 10 and B >= 3",
		"R(A,B) select count(distinct B)",
		"R(A,B) where A = 2, B <= 3 select B",
		"R(A,B) select sum(*)",
		"R(A,B) where A ! 3",
		"R(A,B) select",
		"R(A,B) where A < -5",
		"R(A,B) select min(A), max(B)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rel, err := NewRelation("R", 2, [][]int{{1, 2}})
	if err != nil {
		f.Fatal(err)
	}
	s2, err := NewRelation("S", 2, [][]int{{2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	rels := map[string]*Relation{"R": rel, "S": s2}
	f.Fuzz(func(t *testing.T, expr string) {
		q, err := ParseQuery(expr, rels)
		if err != nil {
			return
		}
		// Anything that parses must execute.
		if _, err := Execute(q, nil); err != nil {
			t.Fatalf("parsed query failed to execute: %v (expr %q)", err, expr)
		}
	})
}

// FuzzExecuteTwoAtoms builds two small relations from fuzzed bytes and
// checks that Minesweeper agrees with the hash-plan oracle.
func FuzzExecuteTwoAtoms(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{2, 5, 3, 7})
	f.Add([]byte{}, []byte{0, 0})
	f.Add([]byte{9, 9, 9, 9}, []byte{9, 9})
	f.Fuzz(func(t *testing.T, rb, sb []byte) {
		if len(rb) > 60 || len(sb) > 60 {
			return
		}
		mk := func(b []byte) [][]int {
			var out [][]int
			for i := 0; i+1 < len(b); i += 2 {
				out = append(out, []int{int(b[i]) % 16, int(b[i+1]) % 16})
			}
			return out
		}
		r, err := NewRelation("R", 2, mk(rb))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewRelation("S", 2, mk(sb))
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuery(
			Atom{Rel: r, Vars: []string{"A", "B"}},
			Atom{Rel: s, Vars: []string{"B", "C"}},
		)
		if err != nil {
			t.Fatal(err)
		}
		gao := []string{"A", "B", "C"}
		ms, err := Execute(q, &Options{Engine: EngineMinesweeper, GAO: gao, Debug: true})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Execute(q, &Options{Engine: EngineHashPlan, GAO: gao})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms.Tuples) != len(oracle.Tuples) {
			t.Fatalf("minesweeper %d tuples, oracle %d", len(ms.Tuples), len(oracle.Tuples))
		}
		for i := range ms.Tuples {
			for j := range ms.Tuples[i] {
				if ms.Tuples[i][j] != oracle.Tuples[i][j] {
					t.Fatalf("tuple %d differs: %v vs %v", i, ms.Tuples[i], oracle.Tuples[i])
				}
			}
		}
	})
}

// FuzzLastLevelRun aims at Minesweeper's last-level walk: two or three
// small relations under a fuzzed GAO, with a third atom ending on the
// GAO's last attribute, a fuzzed bound on that attribute and a fuzzed
// limit. The Minesweeper stream (Debug on) must be the hash-plan
// oracle's, cut at the limit.
func FuzzLastLevelRun(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{2, 5, 2, 6, 2, 7, 3, 7}, []byte{1, 7, 2, 5}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 1, 0}, []byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0, 2, 0, 3}, uint8(3), uint8(0x13), uint8(2))
	f.Add([]byte{9, 9, 8, 9}, []byte{9, 1, 9, 2}, []byte{9}, uint8(0x25), uint8(0x2a), uint8(1))
	f.Fuzz(func(t *testing.T, rb, sb, ub []byte, order, bound, limit uint8) {
		if len(rb) > 60 || len(sb) > 60 || len(ub) > 60 {
			return
		}
		pairs := func(b []byte) [][]int {
			var out [][]int
			for i := 0; i+1 < len(b); i += 2 {
				out = append(out, []int{int(b[i]) % 16, int(b[i+1]) % 16})
			}
			return out
		}
		gaos := [][]string{{"A", "B", "C"}, {"A", "C", "B"}, {"B", "A", "C"}, {"B", "C", "A"}, {"C", "A", "B"}, {"C", "B", "A"}}
		gao := gaos[int(order&7)%len(gaos)]
		last := gao[2]
		atoms := []Atom{
			{Rel: rel(t, "R", 2, pairs(rb)), Vars: []string{"A", "B"}},
			{Rel: rel(t, "S", 2, pairs(sb)), Vars: []string{"B", "C"}},
		}
		// The third atom ends on the last attribute: U(gao[0], last),
		// U(gao[1], last) or the unary U(last), or is left out.
		switch order >> 3 & 3 {
		case 0, 1:
			atoms = append(atoms, Atom{Rel: rel(t, "U", 2, pairs(ub)), Vars: []string{gao[order>>3&1], last}})
		case 2:
			var vals [][]int
			for _, v := range ub {
				vals = append(vals, []int{int(v) % 16})
			}
			atoms = append(atoms, Atom{Rel: rel(t, "U", 1, vals), Vars: []string{last}})
		}
		q, err := NewQuery(atoms...)
		if err != nil {
			t.Fatal(err)
		}
		var where []Filter
		switch bound >> 4 & 3 {
		case 1:
			where = []Filter{{Var: last, Op: "<=", Value: int(bound & 15)}}
		case 2:
			where = []Filter{{Var: last, Op: ">=", Value: int(bound & 15)}}
		case 3:
			where = []Filter{{Var: last, Op: "=", Value: int(bound & 15)}}
		}
		oracle, err := Execute(q, &Options{Engine: EngineHashPlan, GAO: gao, Where: where})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Tuples
		k := int(limit)
		if k > 0 && k < len(want) {
			want = want[:k]
		} else {
			k = -1
		}
		ms, err := ExecuteLimit(q, &Options{Engine: EngineMinesweeper, GAO: gao, Where: where, Debug: true}, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := fmt.Sprint(ms.Tuples), fmt.Sprint(want); got != exp {
			t.Fatalf("gao %v where %v limit %d:\nminesweeper %s\noracle      %s", gao, where, k, got, exp)
		}
	})
}
