package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONNamesEveryMetric checks that BENCHMARK.json lists
// exactly the metrics the benchmark reports, with the same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v, benchmark has %v", got, want)
	}
	e2e := endToEndMetrics(0, 0, 0, 0, 0, 0)
	layers := layerMetrics(nil, 0, nil, &fixture{}, replayTotals{})
	layers.setRun(0, 0, map[string]float64{}, 0)
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		have   map[string]metric
	}{{"end_to_end", bj.EndToEnd, e2e}, {"per_layer", bj.PerLayer, layers}} {
		listed := map[string]string{}
		for _, m := range c.listed {
			listed[m.Name] = m.Unit
		}
		for name, m := range c.have {
			if u, ok := listed[name]; !ok || u != m.Unit {
				t.Errorf("%s: reported %s (%s) listed as %q (listed %v)", c.what, name, m.Unit, u, ok)
			}
		}
		for name := range listed {
			if _, ok := c.have[name]; !ok {
				t.Errorf("%s: %s listed but not reported", c.what, name)
			}
		}
	}
}
