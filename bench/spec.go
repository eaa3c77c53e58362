package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec is one declared metric. Bound (end-to-end metrics only) is the
// share of the median by which the metric may worsen before a change counts
// as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that names the workloads, the
// metrics, their units and their regression bounds. The program emits values
// by name and takes everything else from here, so the two cannot drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs workloads, end_to_end and per_layer", path)
	}
	return &s, nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit maps measured values onto the declared metrics. Every measured name
// must be declared (a typo is an error, not a silently missing number). An
// end-to-end metric is defined on every workload and is never zero, so a
// missing one is an error; a per-layer metric the workload does not exercise
// reads 0.
func emit(declared []metricSpec, values map[string]float64, endToEnd bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	seen := 0
	for _, m := range declared {
		v, ok := values[m.Name]
		if ok {
			seen++
		}
		if endToEnd && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if seen != len(values) {
		var stray []string
		for name := range values {
			if _, ok := out[name]; !ok {
				stray = append(stray, name)
			}
		}
		sort.Strings(stray)
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %v", stray)
	}
	return out, nil
}
