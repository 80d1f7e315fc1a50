package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, whose schema
// has no room for the per-layer predictions, in step with the metric
// table the traced run reports from.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one perfbench runs", w.Name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, perfbench %s %s %s", i, m, want.name, want.unit, want.better)
		}
	}
}
