// Command bench is the repository's end-to-end benchmark: four
// closed-loop workloads over the rendezvous simulator (see README.md).
//
//	bash bench/run.sh --workload meet-inproc --seed 1 --seconds 20 --trace 0
//
// It checks every op against a reference, prints every metric as a text
// table and, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics, traced runs the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/dist"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full, self-describing outcome of one run (-out).
type record struct {
	Workload  string        `json:"workload"`
	Why       string        `json:"why"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Trace     bool          `json:"trace"`
	Host      hostInfo      `json:"host"`
	Durations durations     `json:"durations"`
	Samples   samples       `json:"samples"`
	Ledger    []ledgerRow   `json:"ledger,omitempty"`
	Spans     []spanSummary `json:"spans,omitempty"`
	Notes     []string      `json:"notes"`
	Result    result        `json:"result"`
}

type durations struct {
	ReferenceS float64   `json:"reference_s"` // the harness's own reference outputs
	SetupS     []float64 `json:"setup_s"`     // each set-up repetition
	TimedS     float64   `json:"timed_s"`
	ReplayS    float64   `json:"replay_s"`
	WallS      float64   `json:"wall_s"` // the whole run, as the harness saw it
}

type samples struct {
	Ops       int `json:"ops"`
	TracedOps int `json:"traced_ops"`
	Windows   int `json:"throughput_windows"`
	Setups    int `json:"setups"`
	Spans     int `json:"spans"`
}

func main() {
	// Spawned fleet workers re-execute this binary; divert them first.
	dist.MaybeServeStdio()

	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: meet-inproc, meet-fleet, miss-inproc or tables")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (1 is the default set, 2 the holdout)")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the full result record as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if _, ok := workloadByName(o.workload); !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or non-positive -seconds\n", o.workload)
		os.Exit(2)
	}

	rec, spans, err := execute(o, fullSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			os.Exit(1)
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing record:", err)
			os.Exit(1)
		}
	}
	printText(os.Stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload: reference, set-up repetitions, the timed
// phase and, when traced, the layer replays.
func execute(o options, sz size) (*record, []span, error) {
	start := time.Now()
	w, _ := workloadByName(o.workload)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	rec := &record{Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: readHost()}
	s, err := w.open(o.seed, sz)
	if err != nil {
		return nil, nil, fmt.Errorf("%s reference: %w", w.name, err)
	}
	defer s.close()
	rec.Durations.ReferenceS = time.Since(start).Seconds()
	for k := 0; k < sz.setups; k++ {
		d, err := s.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		rec.Durations.SetupS = append(rec.Durations.SetupS, d.Seconds())
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ph := timedPhase(s, o.seconds, tr)
	rec.Durations.TimedS = ph.wall.Seconds()
	rec.Notes = append(rec.Notes, ph.errs...)
	res := result{Attempted: ph.attempted, Failed: ph.failed}
	var metrics map[string]float64
	defs := endToEnd
	if o.trace {
		rs := time.Now()
		l, err := layerMetrics(s, ph, tr, sz.replay)
		if err != nil {
			return nil, nil, err
		}
		rec.Durations.ReplayS = time.Since(rs).Seconds()
		metrics, defs, rec.Ledger = l.metrics, perLayer, l.ledger
		res.Attempted += l.attempted
		res.Failed += l.failed
		rec.Samples.Spans = len(tr.spans)
		rec.Spans = summarize(tr.spans)
	} else {
		metrics = endToEndMetrics(ph, rec.Durations.SetupS, &rec.Notes)
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Notes = append(rec.Notes, d.Name+" was undefined on this run; reported as 0")
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Result = res
	rec.Samples.Ops = ph.attempted
	rec.Samples.TracedOps = ph.traced.hist.N()
	rec.Samples.Windows = len(ph.windows)
	rec.Samples.Setups = len(rec.Durations.SetupS)
	if rec.Host.CoresBelowShape {
		rec.Notes = append(rec.Notes, "host has fewer cores than the 2-wide workloads use: meet-fleet and tables are not comparable across hosts")
	}
	rec.Durations.WallS = time.Since(start).Seconds()
	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	return rec, spans, nil
}

// printText writes the human-readable form of a record.
func printText(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host: %d cpus (GOMAXPROCS %d), %s, %s %s/%s, rev %s modified=%v\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.OS, h.Arch, h.VCSRevision, h.VCSModified)
	d := rec.Durations
	fmt.Fprintf(w, "durations: reference %.2fs, setups %v s, timed %.2fs, replays %.2fs, wall %.2fs\n",
		d.ReferenceS, d.SetupS, d.TimedS, d.ReplayS, d.WallS)
	fmt.Fprintf(w, "samples: %d ops (%d traced), %d throughput windows, %d set-ups\n",
		rec.Samples.Ops, rec.Samples.TracedOps, rec.Samples.Windows, rec.Samples.Setups)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %16s  %s\n", "metric", "value", "unit")
	for _, n := range names {
		v := rec.Result.Metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g  %s\n", n, v.Value, v.Unit)
	}
	if len(rec.Ledger) > 0 {
		fmt.Fprintf(w, "ledger (ns per input simulation)\n")
		for _, r := range rec.Ledger {
			fmt.Fprintf(w, "  %-52s %12.1f\n", r.Name, r.NsPerSim)
		}
	}
	if len(rec.Spans) > 0 {
		fmt.Fprintf(w, "spans %41s %8s %12s %12s\n", "", "count", "total ms", "self ms")
		for _, s := range rec.Spans {
			fmt.Fprintf(w, "  %-44s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", rec.Result.Attempted, rec.Result.Failed)
}
