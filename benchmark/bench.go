package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spec is the part of BENCHMARK.json the harness reads back: the metric
// names it must emit and the regression bounds -repeat flags against.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// makePlan derives the schedule from -seconds and -scale. The round
// count is fixed before the clock starts; a slow machine stretches the
// horizon (and counts late rounds) instead of dropping work. -scale
// smoke is 3 unpaced rounds.
func makePlan(o options, w *workload) plan {
	p := plan{rounds: 3, timedRuns: 2, blocks: w.blocks, setupEvery: 2, recoverEvery: 2}
	if o.scale != "smoke" {
		p = plan{period: period, timedRuns: w.timedRuns, blocks: w.blocks, setupEvery: w.setupEvery, recoverEvery: w.recoverEvery}
		p.rounds = int(time.Duration(o.seconds) * time.Second / period)
		if o.trace {
			// The traced run spends half the horizon on the HTTP
			// schedule (for the msserve.* layer metrics) and the rest on
			// the in-process layer ladder.
			p.rounds /= 2
		}
		p.rounds = max(p.rounds, 1)
	}
	if o.trace {
		p.extras, p.bursts = true, min(10, p.rounds)
	}
	return p
}

// runWorkload generates the workload's inputs from the seed, computes
// the oracle, and runs either the end-to-end schedule or the traced
// layer ladder.
func runWorkload(e *env, o options, name string) (*report, error) {
	w, err := buildWorkload(name, scales[o.scale], o.seed)
	if err != nil {
		return nil, err
	}
	orc, err := buildOracle(w)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	p := makePlan(o, w)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res, err := runSchedule(e, w, orc, p, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: endToEnd(w, res)}
	var problems []string
	if o.trace {
		layers, err := tracedLadder(e, o, w, orc, res, tr)
		if err != nil {
			return nil, err
		}
		rep.Metrics = layers
		if o.scale == "full" {
			problems = validity(w, res, layers, p.rounds)
		}
	}
	rep.Attempted, rep.Failed = res.ops.totals()
	for _, err := range res.ops.errs {
		problems = append(problems, err.Error())
	}
	if err := finite(rep.Metrics); err != nil {
		problems = append(problems, err.Error())
	}
	rep.Correct = rep.Failed == 0 && len(problems) == 0
	fmt.Printf("%-12s ops ok/attempted:%s\n", name, res.ops)
	for _, p := range problems {
		fmt.Printf("%-12s FAIL %s\n", name, p)
	}
	return rep, nil
}

// endToEnd turns the schedule's samples into the end-to-end metrics.
// Every timing is q1, the mean of the fastest quarter.
func endToEnd(w *workload, r *httpResult) map[string]metric {
	return map[string]metric{
		"setup_s":              {q1(r.setupS), "s"},
		"run_q1_ms":            {q1(r.run), "ms"},
		"stale_run_q1_ms":      {r.stale.q1(), "ms"},
		"mutate_q1_ms":         {r.mutate.q1(), "ms"},
		"recover_s":            {q1(r.recoverS), "s"},
		"rss_mb":               {quantile(r.hwmKB, 0.5) / 1024, "MB"},
		"allocs_per_round":     {q1(r.allocs), "count"},
		"probes_per_run":       {float64(r.stats.ProbePoints), "count"},
		"disk_bytes_per_tuple": {float64(r.diskBytes) / float64(w.tuplesTotal()), "B"},
	}
}

// validity checks that the workload still stresses the layer it was
// chosen for; each failed assertion is one line of the report. The
// thresholds leave room for the noise of one traced run: they are there
// to catch a workload that has changed character, not to gate.
func validity(w *workload, r *httpResult, m map[string]metric, rounds int) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, "validity: "+fmt.Sprintf(format, args...))
		}
	}
	runMs := q1(r.run)
	tax := m["msserve.tax_ms"].Value
	switch w.name {
	case "out_bound":
		share := (tax + m["engine.tax_ms"].Value) / runMs
		check(share >= 0.35, "msserve.tax_ms + engine.tax_ms is %.0f%% of run_q1_ms, want ≥ 35%%", 100*share)
	case "scatter":
		sliced := len(r.explain.Partitions) > 0
		for _, part := range r.explain.Partitions {
			sliced = sliced && part != "gathered"
		}
		check(sliced, "plan %v is not sliced", r.explain.Partitions)
		check(r.failovers == 0, "shard.failovers = %d, want 0", r.failovers)
	case "cert_bound":
		z := float64(r.stats.Outputs)
		check(float64(r.stats.ProbePoints) >= 20*z, "probes %d < 20·Z (Z = %.0f)", r.stats.ProbePoints, z)
		check(tax <= 0.2*runMs, "msserve.tax_ms is %.0f%% of run_q1_ms, want ≤ 20%%", 100*tax/runMs)
	case "churn":
		// One compaction per six rounds: 3 over the full horizon.
		want := int64(max(rounds/6, 1))
		check(r.snapshots >= want, "storage.snapshots = %d, want ≥ %d", r.snapshots, want)
		check(m["storage.syncs_per_mutation"].Value >= 1, "storage.syncs_per_mutation = %.2f, want ≥ 1", m["storage.syncs_per_mutation"].Value)
	}
	return out
}
