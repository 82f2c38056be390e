package main

import (
	"net/http"
	"testing"
	"time"

	"minesweeper/internal/shard"
)

// FuzzMutateAndQuery posts arbitrary bodies to the insert, delete and
// ad-hoc query endpoints of a 2-shard server: no body may panic the
// handler or draw a 5xx other than 503 (degraded store) and 504 (run
// deadline).
func FuzzMutateAndQuery(f *testing.F) {
	paths := []string{"/relations/R/insert", "/relations/R/delete", "/query"}
	f.Add(uint8(0), []byte(`{"tuples":[[9,2],[3,4]]}`))
	f.Add(uint8(1), []byte(`{"tuples":[[1,2]]}`))
	f.Add(uint8(0), []byte(`{"tuples":[[1]]}`))
	f.Add(uint8(1), []byte(`{"tuples":[[-1,2]]}`))
	f.Add(uint8(0), []byte(`{"tuples":null}`))
	f.Add(uint8(2), []byte(`{"query":"R(A,B), S(B,C)","limit":2,"engine":"leapfrog"}`))
	f.Add(uint8(2), []byte(`{"query":"R(A, 3), S(3, C)","select":"A, count(*)","where":"A < 5"}`))
	f.Add(uint8(2), []byte(`{"query":"R(A,B), S(B,C)","gao":["C","A"],"domain":"freq","workers":3}`))
	f.Add(uint8(2), []byte(`{"query":"R(A,B","timeout":"-1s"}`))
	f.Add(uint8(2), []byte(`not json`))

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		cat := shard.New(2)
		if _, err := cat.Create("R", []string{"A", "B"}, [][]int{{1, 2}, {2, 3}, {3, 3}, {5, 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Create("S", []string{"B", "C"}, [][]int{{2, 5}, {3, 7}, {3, 1}, {1, 4}}); err != nil {
			t.Fatal(err)
		}
		cfg := defaultServerConfig()
		cfg.runTimeout = time.Second // a fuzzed cross product must not stall the fuzzer
		s := newServerWith(cat, cfg)
		defer s.Close()
		path := paths[int(op)%len(paths)]
		rec := do(t, s, "POST", path, string(body))
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
		}
	})
}
