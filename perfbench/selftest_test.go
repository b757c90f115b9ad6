package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTest runs every workload down-scaled, untraced and traced, with
// every output check and exercise assertion, so the harness cannot rot.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	out := filepath.Join("..", ".bench_build", "selftest")
	for _, name := range []string{"build", "churn", "serve"} {
		for _, trace := range []bool{false, true} {
			o := opts{seed: defaultSeed, seconds: 8, trace: trace, small: true, out: out}
			res, code, err := runWorkload(name, workloads[name], o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: exit %d, correct=%v attempted=%d failed=%d", name, trace, code, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for metric, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, metric)
					}
				}
			}
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON holds the metric tables and the
// workload list in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the table %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, e2eMetrics)
	same("per_layer", bench.PerLayer, layerMetrics)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
}
