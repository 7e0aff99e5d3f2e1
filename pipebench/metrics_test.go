package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the command prints
// and the ones BENCHMARK.json declares the same, in name and unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd, spec.EndToEnd},
		{"per_layer", perLayer, spec.PerLayer},
	} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: command prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.defs), len(c.json))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: command prints %s (%s), BENCHMARK.json declares %s (%s)",
					c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}
