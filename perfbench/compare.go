package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readResults collects the metric values of every result line in r (lines
// that are not results, such as stamps, are skipped), keyed by metric name.
func readResults(r io.Reader) (map[string][]float64, error) {
	vals := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res result
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	return vals, sc.Err()
}

// verdict judges one end-to-end metric of a change against its parent by
// the benchmark's rule: "regressed" when the change's median is worse than
// the parent's by more than the bound, "unresolved" when either side's
// spread is wider than the bound and not every change run beats every
// parent run, "ok" otherwise.
func verdict(spec specMetric, base, cur []float64) string {
	if len(base) == 0 || len(cur) == 0 {
		return "missing"
	}
	if regressed(median(base), median(cur), spec.Bound, spec.Better) {
		return "regressed"
	}
	if len(base) >= 2 && len(cur) >= 2 &&
		(spread(base) > spec.Bound || spread(cur) > spec.Bound) && !allBetter(spec.Better, base, cur) {
		return "unresolved"
	}
	return "ok"
}

// allBetter reports whether every value of cur beats every value of base.
func allBetter(better string, base, cur []float64) bool {
	b, c := sorted(base), sorted(cur)
	if better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// compare prints, for every end-to-end metric of BENCHMARK.json, the
// median and spread of the result lines in basePath and newPath (one
// workload each) and the verdict. It fails when a metric regressed.
func compare(benchPath, basePath, newPath string, out io.Writer) error {
	spec, err := loadSpec(benchPath)
	if err != nil {
		return err
	}
	sides := make([]map[string][]float64, 2)
	for i, p := range []string{basePath, newPath} {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		sides[i], err = readResults(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	var bad []string
	fmt.Fprintf(out, "%-18s %6s %12s %8s %12s %8s %6s  %s\n",
		"metric", "unit", "base p50", "spread", "new p50", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		base, cur := sides[0][m.Name], sides[1][m.Name]
		v := verdict(m, base, cur)
		fmt.Fprintf(out, "%-18s %6s %12.6g %8s %12.6g %8s %6.3g  %s\n",
			m.Name, m.Unit, median(base), spreadText(base), median(cur), spreadText(cur), m.Bound, v)
		if v == "regressed" || v == "missing" {
			bad = append(bad, m.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s regressed or missing", strings.Join(bad, ", "))
	}
	return nil
}

func spreadText(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	return fmt.Sprintf("%.3f", spread(xs))
}
