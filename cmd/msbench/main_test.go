package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

func msbench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExpAllSmall(t *testing.T) {
	t.Parallel()
	code, out, errs := msbench(t, "-exp", "all", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"== E1/Figure 2", "== E17/Section 4.4", "== micro", "claim: "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestExpCountersMatchesGolden(t *testing.T) {
	t.Parallel()
	code, out, errs := msbench(t, "-exp", "counters", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	golden, err := os.ReadFile("../../internal/esuite/testdata/counters.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatal("msbench -exp counters -scale small differs from internal/esuite/testdata/counters.golden; " +
			"go test ./internal/esuite prints the differing lines")
	}
}

func TestUnknownExperimentListsRegistry(t *testing.T) {
	code, _, errs := msbench(t, "-exp", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{"counters", "fig2", "longpath", "sharded"} {
		if !strings.Contains(errs, want) {
			t.Errorf("listing lacks %q:\n%s", want, errs)
		}
	}
}

func TestJSONAndCompare(t *testing.T) {
	// testing.Benchmark reads the test binary's own -test.benchtime: one
	// iteration per case is enough to see the pipeline work.
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	code, _, errs := msbench(t, "-json", os.DevNull, "-bench", "Figure2")
	if code != 0 || !strings.Contains(errs, "wrote 3 benchmarks") {
		t.Fatalf("exit %d: %s", code, errs)
	}
	path := t.TempDir() + "/bench.json"
	if code, _, errs := msbench(t, "-json", path, "-label", "test", "-bench", "CDSInsConstraint"); code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	code, out, errs := msbench(t, "-compare", path+","+path)
	if code != 0 || !strings.Contains(out, "CDSInsConstraint") {
		t.Fatalf("exit %d: %s%s", code, out, errs)
	}
	if code, _, _ := msbench(t, "-json", os.DevNull, "-bench", "no-such-case"); code != 2 {
		t.Fatalf("empty selection: exit %d, want 2", code)
	}
}
