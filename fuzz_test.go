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

// FuzzLastLevelRun aims at Minesweeper's suffix walk. A shape byte
// draws either two or three small relations over A, B, C under one of
// the six orders, with a third atom ending on the order's last
// attribute, or a 4-attribute path R(A,B), S(B,C), T(C,D) or star
// R(A,B), S(A,C), T(A,D) under one of the 24 orders, which reach every
// cut level k* from 1 to 3. A fuzzed bound on any one attribute and a
// fuzzed limit complete the query. The Minesweeper stream (Debug on,
// so it must also ascend strictly) must be the hash-plan oracle's, cut
// at the limit.
func FuzzLastLevelRun(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{2, 5, 2, 6, 2, 7, 3, 7}, []byte{1, 7, 2, 5}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 1, 0}, []byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0, 2, 0, 3}, uint8(3), uint8(0x13), uint8(2))
	f.Add([]byte{9, 9, 8, 9}, []byte{9, 1, 9, 2}, []byte{9}, uint8(0x25), uint8(0x2a), uint8(1))
	f.Add([]byte{1, 2, 1, 3, 2, 2, 4, 3}, []byte{2, 5, 2, 6, 3, 5, 3, 8}, []byte{5, 1, 5, 2, 6, 1, 8, 4}, uint8(0x80|6), uint8(0x56), uint8(0))
	f.Add([]byte{1, 2, 1, 3, 2, 2}, []byte{1, 5, 1, 6, 2, 5}, []byte{1, 7, 1, 9, 2, 8}, uint8(0xc0), uint8(0x9e), uint8(5))
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
		var gao []string
		var atoms []Atom
		if shape := order >> 6; shape < 2 {
			gao = permutations([]string{"A", "B", "C"})[int(order&7)%6]
			last := gao[2]
			atoms = []Atom{
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
		} else {
			gao = permutations([]string{"A", "B", "C", "D"})[int(order&31)%24]
			// The path S(B,C), T(C,D), or the star S(A,C), T(A,D).
			second, third := "B", "C"
			if shape == 3 {
				second, third = "A", "A"
			}
			atoms = []Atom{
				{Rel: rel(t, "R", 2, pairs(rb)), Vars: []string{"A", "B"}},
				{Rel: rel(t, "S", 2, pairs(sb)), Vars: []string{second, "C"}},
				{Rel: rel(t, "T", 2, pairs(ub)), Vars: []string{third, "D"}},
			}
		}
		q, err := NewQuery(atoms...)
		if err != nil {
			t.Fatal(err)
		}
		// The bound's attribute counts back from the last one.
		attr := gao[len(gao)-1-int(bound>>6)%len(gao)]
		var where []Filter
		switch bound >> 4 & 3 {
		case 1:
			where = []Filter{{Var: attr, Op: "<=", Value: int(bound & 15)}}
		case 2:
			where = []Filter{{Var: attr, Op: ">=", Value: int(bound & 15)}}
		case 3:
			where = []Filter{{Var: attr, Op: "=", Value: int(bound & 15)}}
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

// permutations lists every order of xs, in lexicographic order of
// their indexes.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{xs}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}
