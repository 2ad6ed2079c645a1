package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workload names and the declared metrics with their units and bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// smoke runs every workload of BENCHMARK.json at toy size and checks that
// both outputs carry exactly the declared metrics with their units, and
// that every output check passed.
func smoke(benchPath, scratch string) error {
	spec, err := loadSpec(benchPath)
	if err != nil {
		return err
	}
	if len(spec.Workloads) == 0 {
		return fmt.Errorf("%s names no workloads", benchPath)
	}
	for _, sw := range spec.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			return err
		}
		for _, mode := range []struct {
			name   string
			traced bool
			want   []specMetric
		}{{"end-to-end", false, spec.EndToEnd}, {"traced", true, spec.PerLayer}} {
			res, err := measure(w.toy(), goldenSeed, 0, mode.traced, nil, scratch)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, mode.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				return fmt.Errorf("%s %s: correct=%t attempted=%d failed=%d",
					w.name, mode.name, res.Correct, res.Attempted, res.Failed)
			}
			if err := sameMetrics(res.Metrics, mode.want); err != nil {
				return fmt.Errorf("%s %s: %w", w.name, mode.name, err)
			}
		}
	}
	return nil
}

// sameMetrics reports any difference between the emitted metrics and the
// declared ones, by name and unit.
func sameMetrics(got map[string]metric, want []specMetric) error {
	var problems []string
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, declared %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}
