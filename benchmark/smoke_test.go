package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at -scale smoke (3 unpaced rounds over
// tiny data), untraced and traced, against a real msserve child. It
// checks that exactly the metrics BENCHMARK.json names are emitted with
// the units it gives them and finite values, that every operation
// verified, that trace.json parses with non-negative self times, and
// that no child process or data directory outlives the run.
func TestSmoke(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if _, err := e.build(); err != nil {
		t.Fatal(err)
	}

	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(e, options{root: root, scale: "smoke", seed: 7, seconds: 1, trace: traced}, name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if traced {
				rep.Metrics["driver.build_s"] = metric{1, "s"} // added by run() from the build it timed
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if err := finite(rep.Metrics); err != nil {
				t.Errorf("%s trace=%v: %v", name, traced, err)
			}
			for k, m := range rep.Metrics {
				if unit, ok := want[traced][k]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: emitted %s in %q, BENCHMARK.json has unit %q (named there: %v)", name, traced, k, m.Unit, unit, ok)
				}
			}
			for k := range want[traced] {
				if _, ok := rep.Metrics[k]; !ok {
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but was not emitted", name, traced, k)
				}
			}
			if traced {
				checkTrace(t, filepath.Join(root, ".bench_build", "trace.json"), name)
			}
		}
	}

	e.cleanup()
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind (stat: %v)", e.work, err)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if cmdline, err := os.ReadFile(p); err == nil && bytes.Contains(cmdline, []byte(e.work)) {
			t.Errorf("child process left behind: %s: %q", p, cmdline)
		}
	}
}

func checkTrace(t *testing.T, path, workload string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Workload string     `json:"workload"`
		Ladder   []layerRow `json:"ladder"`
		Spans    []span     `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if tr.Workload != workload || len(tr.Ladder) == 0 || len(tr.Spans) == 0 {
		t.Fatalf("trace.json: workload %q, %d ladder rows, %d spans", tr.Workload, len(tr.Ladder), len(tr.Spans))
	}
	for _, row := range tr.Ladder {
		if !(row.SelfMs >= 0) || !(row.Q1Ms > 0) {
			t.Errorf("trace.json: ladder row %+v", row)
		}
	}
	layers := map[string]bool{}
	for _, s := range tr.Spans {
		layers[s.Layer] = true
		if s.EndNs < s.StartNs || s.Parent >= s.ID || s.Request == "" {
			t.Errorf("trace.json: span %+v", s)
		}
	}
	for _, l := range []string{"msserve", "shard", "minesweeper", "planner", "engine", "core", "cds", "reltree", "catalog", "storage", "relio"} {
		if !layers[l] {
			t.Errorf("trace.json: no span for layer %s", l)
		}
	}
}
