package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the code must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}

	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
	}

	tl := &tally{}
	for i := 0; i < minSamplesFor(0.95); i++ {
		tl.record(time.Duration(i+1)*time.Millisecond, nil)
	}
	e2e, err := endToEnd([]float64{1, 2, 3}, tl, time.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the code reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(names) != len(e2e) {
		t.Errorf("BENCHMARK.json lists end-to-end metrics %v, the code reports %v", names, sortedKeys(e2e))
	}

	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code has %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, bf.PerLayer[i], m)
		}
	}
	for span, metric := range spanMetric {
		found := false
		for _, m := range layerMetrics {
			found = found || m.name == metric
		}
		if !found {
			t.Errorf("span %s feeds %s, which is not in the per-layer table", span, metric)
		}
	}
}
