package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMain lets the test binary serve as service_mix's load generator, as
// the benchmark's binary does.
func TestMain(m *testing.M) {
	loadgenIfAsked()
	os.Exit(m.Run())
}

// toyConfig runs a workload at toy scale: a 64-file tree, 10 verdicts per
// tree workload, and 2 seconds at 20 requests per second on the service
// after 16 warm-up requests.
func toyConfig(t *testing.T, workload string, trace bool) *config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace, cfg.traceDir = workload, trace, t.TempDir()
	cfg.treeFiles, cfg.setups, cfg.seconds, cfg.verdicts, cfg.warmup = 64, 2, 2, 10, 16
	if workload == "service_mix" {
		cfg.verdicts = 40
	}
	return cfg
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// at toy scale, requires every correctness gate to pass, and requires the
// metric names and units each run prints to be exactly the ones
// BENCHMARK.json declares, so the declaration and the code cannot drift
// apart.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var specs []string
	for _, w := range workloads {
		specs = append(specs, w.name)
	}
	if !slices.Equal(names, specs) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, specs)
	}
	units := func(ds []declared) map[string]string {
		out := map[string]string{}
		for _, d := range ds {
			out[d.Name] = d.Unit
		}
		return out
	}
	for _, wl := range specs {
		for _, trace := range []bool{false, true} {
			r, err := run(toyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl, trace, err)
			}
			if !r.Correct {
				t.Errorf("%s trace=%t: incorrect: %v", wl, trace, r.Problems)
			}
			want := units(man.EndToEnd)
			if trace {
				want = units(man.PerLayer)
			}
			got := lastLine(t, r)
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", wl, trace, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := got.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", wl, trace, name, m, unit)
				}
			}
			if got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d failed %d", wl, trace, got.Attempted, got.Failed)
			}
		}
	}
}

// lastLine prints r and decodes the last line, which must be a JSON object
// with exactly the four summary keys.
func lastLine(t *testing.T, r *report) (s summary) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	var last []byte
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 {
		t.Fatalf("last line %q: want a JSON object with 4 keys (%v)", last, err)
	}
	if err := json.Unmarshal(last, &s); err != nil {
		t.Fatal(err)
	}
	return s
}
