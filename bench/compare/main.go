// Command compare sets two sets of benchmark records side by side. For
// every workload and end-to-end metric it prints each set's median and
// quartiles and labels set B against set A with the bound BENCHMARK.json
// fixes for the metric: same, worse, better, or unresolved when either
// set's interquartile range, as a share of its median, is wider than
// the bound. Records are the files bench writes with -out; traced
// records are skipped.
//
//	cd bench && go run ./compare -a '../.bench_build/runs/A/*.json' -b '../.bench_build/runs/B/*.json'
//
// It exits 1 when a pair is worse or a run failed an op, 2 on bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/bench/internal/stats"
)

type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// set is one set's values by workload, then metric.
type set struct {
	values    map[string]map[string][]float64
	runs      int
	failedOps int
}

func load(pattern string) (*set, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no records match %q", pattern)
	}
	s := &set{values: map[string]map[string][]float64{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		s.runs++
		s.failedOps += r.Result.Failed
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
	}
	return s, nil
}

// verdict labels B against A for a metric with the given direction and
// bound.
func verdict(a, b []float64, better string, bound float64) string {
	if !(stats.Spread(a) <= bound && stats.Spread(b) <= bound) {
		return "unresolved"
	}
	change := (stats.Median(b) - stats.Median(a)) / stats.Median(a)
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

func run(w io.Writer, specPath, patA, patB string) (worse bool, err error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := load(patA)
	if err != nil {
		return false, err
	}
	b, err := load(patB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "set A: %d runs, %d failed ops; set B: %d runs, %d failed ops\n", a.runs, a.failedOps, b.runs, b.failedOps)
	worse = a.failedOps > 0 || b.failedOps > 0
	fmt.Fprintf(w, "%-12s %-11s %-7s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit",
		"A: q1 / median / q3 (spread)", "B: q1 / median / q3 (spread)", "change", "bound", "verdict")
	quart := func(xs []float64) string {
		q1, _, q3 := stats.Quartiles(xs)
		return fmt.Sprintf("%.4g / %.4g / %.4g (%.1f%%)", q1, stats.Median(xs), q3, 100*stats.Spread(xs))
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values[wl.Name][m.Name], b.values[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-11s missing from set A or B\n", wl.Name, m.Name)
				continue
			}
			v := verdict(va, vb, m.Better, m.Bound)
			worse = worse || v == "worse"
			change := (stats.Median(vb) - stats.Median(va)) / stats.Median(va)
			if math.IsNaN(change) {
				change = 0
			}
			fmt.Fprintf(w, "%-12s %-11s %-7s %36s %36s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name, m.Unit,
				quart(va), quart(vb), 100*change, 100*m.Bound, v)
		}
	}
	return worse, nil
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "benchmark declaration with the bounds")
	patA := flag.String("a", "", "glob of set A's records (the baseline)")
	patB := flag.String("b", "", "glob of set B's records")
	flag.Parse()
	if *patA == "" || *patB == "" {
		fmt.Fprintln(os.Stderr, "compare: -a and -b are required")
		os.Exit(2)
	}
	worse, err := run(os.Stdout, *specPath, *patA, *patB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}
