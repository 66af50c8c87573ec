package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a as a share of a: positive
// when b moved in the bad direction.
func worsening(m manifestMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints, per workload present in both files and per
// end-to-end metric, both values, the relative change and the bound,
// and returns 1 if B is worse than A by more than a bound, if a run
// in either file was incorrect, or if B has failed operations.
func compareFiles(manifestPath, pathA, pathB string) int {
	man, err := readManifest(manifestPath)
	if err == nil {
		var a, b *resultsFile
		if a, err = readResults(pathA); err == nil {
			if b, err = readResults(pathB); err == nil {
				return compareResults(os.Stdout, man, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
	return 2
}

func compareResults(w io.Writer, man *manifest, a, b *resultsFile) int {
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: compare: the files share no workload")
		return 2
	}
	status := 0
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		for _, m := range man.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := worsening(m, va, vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE BOUND"
				status = 1
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		for i, r := range []*result{ra, rb} {
			if !r.Correct {
				fmt.Fprintf(w, "%-18s %c failed its correctness checks: %v\n", name, 'A'+rune(i), r.Checks)
				status = 1
			}
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-18s B has %d failed operations of %d\n", name, rb.Failed, rb.Attempted)
			status = 1
		}
	}
	return status
}
