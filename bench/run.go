package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench/internal/stats"
)

// options are one invocation's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // full result record (JSON); empty: none
	traceOut string // Chrome trace of a traced run; empty: none
}

// opStats accumulates timed ops in constant memory.
type opStats struct {
	hist stats.Hist // op durations, ns
	dur  time.Duration
	sims int
}

func (o *opStats) add(d time.Duration, sims int) {
	o.hist.Add(float64(d))
	o.dur += d
	o.sims += sims
}

// phase is the record of a timed phase.
type phase struct {
	untraced, traced  opStats
	windows           []float64 // sims per second of op time, per throughput window
	attempted, failed int
	wall              time.Duration
	before, after     counters
	memBefore, mem    runtime.MemStats
	errs              []string // first few failure reasons
}

const maxErrs = 5

func (ph *phase) note(err string) {
	if len(ph.errs) < maxErrs {
		ph.errs = append(ph.errs, err)
	}
}

// windowTarget is the untraced op time one throughput window
// accumulates.
const windowTarget = time.Second

// timedPhase runs ops back to back — one closed-loop client — until the
// deadline, always at least one (two with a tracer). With a tracer
// every other op is traced, so traced and untraced ops share the same
// conditions. Fleet fallbacks are read from the registry once a second;
// a fallback fails every op since the previous reading.
func timedPhase(s session, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	runtime.GC()
	ph.before = readCounters()
	runtime.ReadMemStats(&ph.memBefore)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	fb, passedSinceRead, lastRead := ph.before.fallbacks(), 0, start
	readFallbacks := func() {
		now := readCounters().fallbacks()
		if now != fb {
			ph.failed += passedSinceRead
			ph.note(fmt.Sprintf("%.0f fleet fallback(s) to in-process execution", now-fb))
		}
		fb, passedSinceRead, lastRead = now, 0, time.Now()
	}
	var winDur time.Duration
	winSims := 0
	minOps := 1
	if tr != nil {
		minOps = 2
	}
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		root := t.begin("op", 0)
		k := i % s.ops()
		t0 := time.Now()
		sims := s.do(k, t, root)
		d := time.Since(t0)
		cid := t.begin("check", root)
		err := s.check(k)
		t.end(cid)
		t.end(root)

		ph.attempted++
		if err != nil {
			ph.failed++
			ph.note(fmt.Sprintf("op %d: %v", i, err))
		} else {
			passedSinceRead++
		}
		if t != nil {
			ph.traced.add(d, sims)
		} else {
			ph.untraced.add(d, sims)
			winDur += d
			winSims += sims
			if winDur >= windowTarget {
				ph.windows = append(ph.windows, float64(winSims)/winDur.Seconds())
				winDur, winSims = 0, 0
			}
		}
		if time.Since(lastRead) >= time.Second {
			readFallbacks()
		}
	}
	readFallbacks()
	if len(ph.windows) == 0 && winDur > 0 {
		ph.windows = append(ph.windows, float64(winSims)/winDur.Seconds())
	}
	ph.wall = time.Since(start)
	ph.after = readCounters()
	runtime.ReadMemStats(&ph.mem)
	return ph
}

// sims totals the simulations of all ops.
func (ph *phase) sims() int { return ph.untraced.sims + ph.traced.sims }

// perSimNs is the mean untraced op time per simulation.
func (ph *phase) perSimNs() float64 {
	return float64(ph.untraced.dur) / float64(ph.untraced.sims)
}

// endToEndMetrics reduces an untraced run to the end-to-end metrics.
func endToEndMetrics(ph *phase, setups []float64, notes *[]string) map[string]float64 {
	h := &ph.untraced.hist
	tail, pct, ok := h.Tail()
	if ok {
		*notes = append(*notes, fmt.Sprintf("op_tail_ms is the p%.2f of %d ops", pct, h.N()))
	} else {
		tail = h.Max()
		*notes = append(*notes, fmt.Sprintf("op_tail_ms is the slowest of %d ops: too few for a percentile with %d beyond it", h.N(), stats.TailBeyond))
	}
	return map[string]float64{
		"sims_per_s": stats.Median(ph.windows),
		"op_p50_ms":  h.Median() / 1e6,
		"op_tail_ms": tail / 1e6,
		"setup_s":    stats.Median(setups),
		"max_rss_mb": maxRSSMB(),
	}
}
