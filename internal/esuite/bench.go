package esuite

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"minesweeper/internal/certificate"
)

// Bench is the one benchmark loop of the repo's suite: set the case up
// at Full scale, time b.N runs, and report every counter per operation
// (findgaps/op is the paper's certificate-size measurement, probes/op
// the outer-loop iterations, cdsops/op the constraint-store work).
func Bench(b *testing.B, c *Case) {
	inst, err := c.Setup(Full)
	if err != nil {
		b.Fatal(err)
	}
	if inst.Close != nil {
		defer inst.Close()
	}
	var stats certificate.Stats
	outputs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := inst.Run(&stats)
		if err != nil {
			b.Fatal(err)
		}
		outputs += z
	}
	b.StopTimer()
	for _, ctr := range counters {
		b.ReportMetric(float64(ctr.get(&stats, outputs))/float64(b.N), ctr.name+"/op")
	}
}

// Result is one benchmark measurement in the machine-readable trajectory
// format. Metrics carries the per-operation counters alongside the
// standard ns/allocs/bytes.
type Result struct {
	Name        string             `json:"name"`
	Exp         string             `json:"exp"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_op"`
	AllocsPerOp float64            `json:"allocs_op"`
	BytesPerOp  float64            `json:"bytes_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the schema of a BENCH_<n>.json artifact: environment header
// plus one Result per tracked case. Files with equal Schema are
// comparable benchmark-by-benchmark via Name.
type File struct {
	Schema     int      `json:"schema"`
	Label      string   `json:"label,omitempty"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	MaxProcs   int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

// SchemaVersion is bumped when the Result encoding changes shape.
const SchemaVersion = 1

// RunTracked measures every tracked case accepted by filter (nil = all)
// through testing.Benchmark, reporting progress on progress (may be nil).
func RunTracked(filter func(*Case) bool, progress io.Writer) []Result {
	var out []Result
	for _, e := range registry {
		for i := range e.Cases {
			c := &e.Cases[i]
			if !c.Tracked || filter != nil && !filter(c) {
				continue
			}
			if progress != nil {
				fmt.Fprintf(progress, "running %s...", c.Name)
			}
			r := testing.Benchmark(func(b *testing.B) { Bench(b, c) })
			res := Result{
				Name:        c.Name,
				Exp:         e.ID,
				Runs:        r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
				BytesPerOp:  float64(r.MemBytes) / float64(r.N),
				Metrics:     r.Extra,
			}
			out = append(out, res)
			if progress != nil {
				fmt.Fprintf(progress, " %.0f ns/op, %.0f allocs/op\n", res.NsPerOp, res.AllocsPerOp)
			}
		}
	}
	return out
}

// WriteJSON wraps the results in the environment header and writes the
// indented BENCH_<n>.json document.
func WriteJSON(w io.Writer, label string, results []Result) error {
	f := File{
		Schema:     SchemaVersion,
		Label:      label,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		MaxProcs:   runtime.GOMAXPROCS(0),
		Benchmarks: results,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON parses a BENCH_<n>.json document.
func ReadJSON(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("esuite: schema %d, want %d", f.Schema, SchemaVersion)
	}
	return &f, nil
}

// Delta is the comparison of one benchmark across two files.
type Delta struct {
	Name                 string
	OldNs, NewNs         float64
	OldAllocs, NewAllocs float64
}

// NsRatio returns new/old ns per op (1.0 = unchanged; <1 = faster).
func (d Delta) NsRatio() float64 { return ratio(d.NewNs, d.OldNs) }

// AllocsRatio returns new/old allocs per op.
func (d Delta) AllocsRatio() float64 { return ratio(d.NewAllocs, d.OldAllocs) }

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		// Regressing from zero to nonzero must read as a blow-up, not
		// an improvement: report +Inf, which comparison output renders
		// as an unbounded increase.
		return math.Inf(1)
	}
	return a / b
}

// Compare matches benchmarks of two files by name, in the old file's
// order. Benchmarks present in only one file are skipped.
func Compare(old, new *File) []Delta {
	idx := make(map[string]Result, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		idx[r.Name] = r
	}
	var out []Delta
	for _, o := range old.Benchmarks {
		n, ok := idx[o.Name]
		if !ok {
			continue
		}
		out = append(out, Delta{
			Name:  o.Name,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
		})
	}
	return out
}
