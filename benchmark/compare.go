package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles is -compare A.json B.json: per workload × end-to-end
// metric, both medians, the ratio with its base, the bound, and a verdict.
// Each file is an -out report, or a JSON list of them (one per run) —
// with several runs a side's figure is the median of its runs and its
// spread the distance between their quartiles.
//
//	within      B's median is no worse than A's by more than the bound
//	outside     it is worse by more than the bound
//	unresolved  either side's spread is wider than the bound, so the
//	            runs cannot tell (unless every run of B beats every run of A)
func compareFiles(out io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	a, err := loadRuns(paths[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-15s %-20s %12s %12s  %-22s %6s  %s\n",
		"workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	outside := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			av, bv := a[wl.name][spec.name], b[wl.name][spec.name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(out, "%-15s %-20s %12s %12s  %-22s %5.0f%%  missing\n", wl.name, spec.name, "-", "-", "-", spec.bound*100)
				continue
			}
			verdict, ma, mb := judge(spec, av, bv)
			if verdict == "outside" {
				outside++
			}
			fmt.Fprintf(out, "%-15s %-20s %12.5g %12.5g  %-22s %5.0f%%  %s\n", wl.name, spec.name, ma, mb,
				fmt.Sprintf("%.4f of %.5g %s", mb/ma, ma, spec.unit), spec.bound*100, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", outside)
	}
	return nil
}

// judge applies the bound to one metric's runs on each side.
func judge(spec metricSpec, a, b []float64) (verdict string, ma, mb float64) {
	sa, sb := sortedCopy(a), sortedCopy(b)
	ma, mb = quantile(sa, 0.5), quantile(sb, 0.5)
	worse := (mb - ma) / ma // share of A's median by which B is worse
	bBeatsAll := sb[len(sb)-1] < sa[0]
	if spec.better == "higher" {
		worse = -worse
		bBeatsAll = sb[0] > sa[len(sa)-1]
	}
	spread := func(s []float64) float64 { return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5) }
	switch {
	case (spread(sa) > spec.bound || spread(sb) > spec.bound) && !bBeatsAll:
		return "unresolved", ma, mb
	case worse > spec.bound:
		return "outside", ma, mb
	}
	return "within", ma, mb
}

// loadRuns reads workload → end-to-end metric → one value per run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []report
	if err := json.Unmarshal(data, &reports); err != nil {
		var one report
		if err := json.Unmarshal(data, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reports = []report{one}
	}
	runs := map[string]map[string][]float64{}
	for _, rep := range reports {
		if rep.Env.Race {
			return nil, fmt.Errorf("%s was measured under the race detector; its timings mean nothing", path)
		}
		for _, res := range rep.Results {
			if res.Trace {
				continue
			}
			if res.Env.Race {
				return nil, fmt.Errorf("%s: %s was measured under the race detector", path, res.Workload)
			}
			if runs[res.Workload] == nil {
				runs[res.Workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[res.Workload][name] = append(runs[res.Workload][name], m.Value)
			}
		}
	}
	return runs, nil
}
