package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/dist"
	"repro/internal/exps"
)

// TestMain lets the test binary serve as meet-fleet's worker processes.
func TestMain(m *testing.M) {
	dist.MaybeServeStdio()
	os.Exit(m.Run())
}

// toySize shrinks every workload to well under a second.
var toySize = size{
	meetBatches: 4, missBatches: 2,
	perClass: 1, repeats: 1,
	acceptSeg:  40,
	meetMaxSeg: 120_000_000, missMaxSeg: 2_000,
	tablesN: 1, tablesT3N: 1, t5Samples: 20_000,
	budgets: exps.Budgets{MeetSegments: 120_000_000, MissSegments: 20_000},
	setups:  1,
	replay:  time.Millisecond,
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := stats.Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := stats.Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(stats.Median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates past the ends
	} {
		q1, q2, q3 := stats.Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := stats.Spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestHistTailKeepsTenValuesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		v, pct   float64
		reported bool
	}{
		{1000, 990, 99, true},
		{2000, 1980, 99, true},
		{500, 490, 98, true},
		{11, 1, 100.0 / 11, true},
		{10, 0, 0, false},
		{1, 0, 0, false},
	} {
		var h stats.Hist
		for i := c.n; i > 0; i-- {
			h.Add(float64(i))
		}
		v, pct, ok := h.Tail()
		if ok != c.reported {
			t.Errorf("n=%d: reported %v, want %v", c.n, ok, c.reported)
			continue
		}
		if !ok {
			if !math.IsNaN(v) {
				t.Errorf("n=%d: below the rule the tail is %v, want NaN, never a stand-in", c.n, v)
			}
			continue
		}
		if math.Abs(v-c.v) > 0.004*c.v || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v (±0.4%%) at p%v", c.n, v, pct, c.v, c.pct)
		}
	}
}

func TestHistMedianWithinBucketWidth(t *testing.T) {
	var h stats.Hist
	if !math.IsNaN(h.Median()) {
		t.Error("median of nothing is not NaN")
	}
	xs := []float64{31_969, 35_000, 122_992, 4_546_070_000, 40_111}
	for _, x := range xs {
		h.Add(x)
	}
	if want := stats.Median(xs); math.Abs(h.Median()-want) > 0.004*want {
		t.Errorf("median %v, want %v within 0.4%%", h.Median(), want)
	}
	if h.Max() != 4_546_070_000 || h.N() != len(xs) {
		t.Errorf("max %v n %d", h.Max(), h.N())
	}
}

func TestEndToEndTailBelowTheRuleIsTheSlowestOp(t *testing.T) {
	ph := &phase{windows: []float64{1}}
	for _, ms := range []float64{3, 9, 4} {
		ph.untraced.add(time.Duration(ms*1e6), 1)
	}
	var notes []string
	m := endToEndMetrics(ph, []float64{1}, &notes)
	if m["op_tail_ms"] != 9 {
		t.Errorf("op_tail_ms = %v, want the slowest op, 9", m["op_tail_ms"])
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "slowest of 3 ops") {
		t.Errorf("notes = %q, want one saying the tail is the slowest op", notes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, op: 1, start: 0, end: 100},
		{id: 2, parent: 1, op: 1, start: 10, end: 30},
		{id: 3, parent: 1, op: 1, start: 25, end: 50},  // overlaps its sibling
		{id: 4, parent: 1, op: 1, start: 90, end: 120}, // runs past its parent
		{id: 5, parent: 3, op: 1, start: 30, end: 40},
	}
	want := []int64{100 - 40 - 10, 20, 15, 30, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerSharesOpIDs(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0)
	child := tr.begin("call", root)
	grand := tr.begin("inner", child)
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	other := tr.begin("op", 0)
	tr.end(other)
	for _, id := range []uint32{child, grand} {
		if tr.spans[id-1].op != tr.spans[root-1].op {
			t.Errorf("span %d has op %d, want its root's %d", id, tr.spans[id-1].op, root)
		}
	}
	if tr.spans[other-1].op == tr.spans[root-1].op {
		t.Error("a second root span joined the first op")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("op", 0); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	nilTracer.end(0)
}

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and checks that nothing fails and that every metric the
// catalog declares is reported — non-zero where it should move.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, _, err := execute(options{workload: w.name, seed: 1, seconds: 0.05, trace: traced}, toySize)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			r := rec.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed; notes %q", w.name, traced, r.Correct, r.Failed, r.Attempted, rec.Notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not reported", w.name, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s in %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.Name, v.Value)
				case traced && !d.MayBeZero && slices.Contains(d.On, w.name) && v.Value == 0:
					t.Errorf("%s: %s reads 0 on a workload it is declared to move on", w.name, d.Name)
				}
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line %s: want exactly correct, attempted, failed, metrics", line)
			}
		}
	}
}

// TestCorruptReferenceFailsOps flips one reference byte per workload and
// expects the timed phase to count failed ops: the checks bite.
func TestCorruptReferenceFailsOps(t *testing.T) {
	for _, w := range workloads {
		s, err := w.open(1, toySize)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if _, err := s.setup(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		switch s := s.(type) {
		case *batchSession:
			s.ref[0][len(s.ref[0])/2] ^= 1
		case *tablesSession:
			b := []byte(s.ref[0])
			b[len(b)/2] ^= 1
			s.ref[0] = string(b)
		}
		ph := timedPhase(s, 0.01, nil)
		s.close()
		if ph.failed == 0 {
			t.Errorf("%s: a corrupted reference byte failed none of %d ops", w.name, ph.attempted)
		}
	}
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if !slices.Contains([]string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, k) {
			t.Errorf("unexpected key %q", k)
		}
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) || len(spec.Command) == 0 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, command %v, run_seconds %d", spec.Paths, spec.Command, spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, program has %d", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			t.Errorf("workload %d: declared %q, program has %q (or its why differs)", i, w.Name, workloads[i].name)
		}
	}

	compare := func(kind string, declared []specMetric, program []metricDef, bounded bool) {
		if len(declared) != len(program) {
			t.Errorf("%s: %d declared, program emits %d", kind, len(declared), len(program))
		}
		for i, d := range declared {
			checkName(d.Name)
			if i < len(program) {
				p := program[i]
				if d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
					t.Errorf("%s %d: declared %s/%s/%s, program %s/%s/%s", kind, i, d.Name, d.Unit, d.Better, p.Name, p.Unit, p.Better)
				}
			}
			if (d.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present %v, want %v", kind, d.Name, d.Bound != nil, bounded)
			}
			if bounded && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, *d.Bound)
			}
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)

	setup := -1.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("%s's bound %v exceeds setup_s's %v; setup_s must have the largest", m.Name, *m.Bound, setup)
		}
	}

	var wnames, enames []string
	for _, w := range workloads {
		wnames = append(wnames, w.name)
	}
	for _, m := range endToEnd {
		enames = append(enames, m.Name)
	}
	for _, m := range perLayer {
		diagnostic := strings.HasPrefix(m.Name, "ledger.") || strings.HasPrefix(m.Name, "trace.")
		if !diagnostic && !slices.Contains(enames, m.Moves) {
			t.Errorf("%s moves %q, not an end-to-end metric", m.Name, m.Moves)
		}
		if len(m.On) == 0 {
			t.Errorf("%s names no workload", m.Name)
		}
		for _, w := range m.On {
			if !slices.Contains(wnames, w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}
