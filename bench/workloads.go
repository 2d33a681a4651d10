package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/exps"
	"repro/internal/inst"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/rendezvous"
)

// size scales the workloads. Runs use fullSize; the smoke test shrinks
// it so all four workloads finish in well under a second each.
type size struct {
	meetBatches, missBatches int
	perClass, repeats        int // meet batch: perClass draws of each class plus repeats
	acceptSeg                int // meet instances must meet within this many segments
	meetMaxSeg, missMaxSeg   int
	tablesN, tablesT3N       int
	t5Samples                int
	budgets                  exps.Budgets
	setups                   int           // set-up repetitions per run; setup_s is their median
	replay                   time.Duration // least time of each timed replay loop (traced runs)
}

var fullSize = size{
	meetBatches: 256, missBatches: 32,
	perClass: 3, repeats: 4,
	acceptSeg:  40,
	meetMaxSeg: 120_000_000, missMaxSeg: 20_000,
	tablesN: 5, tablesT3N: 3, t5Samples: 2_000_000,
	budgets: exps.DefaultBudgets(),
	setups:  5,
	replay:  200 * time.Millisecond,
}

// workload is one benchmark input set. open draws the inputs from the
// seed and computes the harness's own reference outputs (untimed).
type workload struct {
	name, why string
	// procs is the GOMAXPROCS the workload runs with. The single-threaded
	// in-process workloads use 1, so every cost of an op — the garbage
	// collector's included — lands on the core the op runs on; with a
	// second P the collector's background share depends on how busy the
	// host's other vCPU is, and sims/s, the tail and peak RSS drifted with
	// it from run to run.
	procs int
	open  func(seed int64, sz size) (session, error)
}

// session is an opened workload: set up, then driven one op at a time.
type session interface {
	// setup makes the calls into the system that precede the timed
	// phase and returns how long they took.
	setup() (time.Duration, error)
	// ops is the number of distinct ops; op i of the timed phase runs
	// input i mod ops.
	ops() int
	// do runs op i, the timed call into the system, and returns how
	// many simulations it decided. tr is nil on untraced ops.
	do(i int, tr *tracer, parent uint32) int
	// check verifies the outputs of the last do(i) against the
	// reference and the paper's claims.
	check(i int) error
	close()
}

var workloads = []workload{
	{wMeetInproc, "AURV batches that meet within 40 segments, a quarter memo repeats: per-sim fixed cost (program build, allocs, dedup/fold) on one thread, in-process",
		1, func(seed int64, sz size) (session, error) { return openMeet(seed, sz, false) }},
	{wMeetFleet, "the meet-inproc batches over a 2-process fleet session: same simulations, so the gap to meet-inproc is codec, framing, scheduler and worker cost",
		fleetShape, func(seed int64, sz size) (session, error) { return openMeet(seed, sz, true) }},
	{wMissInproc, "never-meeting batches run to a 20k-segment budget: the engine's segment loop and program generators dominate and per-job cost vanishes",
		1, openMiss},
	{wTables, "full T1-T6 regeneration at rvtable defaults on a 2-wide pool: the researcher's time to the paper's tables",
		fleetShape, openTables},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- batch workloads: meet-inproc, meet-fleet, miss-inproc ----

// batchSession drives rendezvous.SimulateBatch (or a fleet session's
// SimulateBatch) over a pre-drawn pool of batches, cycled.
type batchSession struct {
	draw   func() [][]rendezvous.Instance // the seeded inputs
	pool   [][]rendezvous.Instance
	alg    rendezvous.Algorithm
	set    rendezvous.Settings
	refRes [][]rendezvous.Result // reference results, by batch
	ref    [][]byte              // their wire encoding, by batch
	paper  func(rendezvous.Result) error

	procs int // fleet worker processes; 0 runs in-process
	fleet *rendezvous.Fleet

	last []rendezvous.Result
	buf  []byte
}

var meetClasses = []inst.Class{inst.ClassMirrorInterior, inst.ClassLatecomer, inst.ClassClockDrift, inst.ClassRotatedDelayed}

var missClasses = []inst.Class{inst.ClassInfeasibleShift, inst.ClassInfeasibleMirror, inst.ClassBoundaryS1, inst.ClassBoundaryS2}

// openMeet opens the meet pool: each batch holds perClass instances of
// every meetClasses class that meet within acceptSeg segments, then
// `repeats` seeded repeats of them, so a quarter of every full-size
// batch is served from the batch memo. Keeping only quick meetings
// makes the per-sim cost alike across seeds: the generator's long tail
// (instances needing 10^5 segments and more) would otherwise decide a
// run's throughput by itself.
func openMeet(seed int64, sz size, fleet bool) (session, error) {
	alg := rendezvous.AlmostUniversalRV()
	probe := rendezvous.DefaultSettings()
	probe.MaxSegments = sz.acceptSeg
	set := rendezvous.DefaultSettings()
	set.MaxSegments = sz.meetMaxSeg
	set.Parallelism = 1
	s := &batchSession{alg: alg, set: set,
		draw: func() [][]rendezvous.Instance {
			g := inst.NewGen(seed)
			pool := make([][]rendezvous.Instance, sz.meetBatches)
			for b := range pool {
				var batch []rendezvous.Instance
				for _, c := range meetClasses {
					for k := 0; k < sz.perClass; {
						in := g.Draw(c)
						if rendezvous.Simulate(in, alg, probe).Met {
							batch = append(batch, in)
							k++
						}
					}
				}
				distinct := len(batch)
				for r := 0; r < sz.repeats; r++ {
					batch = append(batch, batch[g.Rng.Intn(distinct)])
				}
				pool[b] = batch
			}
			return pool
		},
		paper: func(r rendezvous.Result) error {
			if !r.Met {
				return errors.New("AURV instance did not meet (Theorem 3.2)")
			}
			return nil
		}}
	if fleet {
		s.procs = fleetShape
	}
	return s, s.reference()
}

// openMiss opens the miss pool: one instance of each missClasses class
// per batch, none of which AURV meets within the budget. Theorem 3.1
// rules meetings out on the infeasible classes; on the boundary sets S1
// and S2 AURV meets now and then — about one S1 draw in 2000 within
// 20,000 segments, on a direction close to its dyadic grid (T4's
// aligned row) — so boundary draws that meet are drawn again.
func openMiss(seed int64, sz size) (session, error) {
	alg := rendezvous.AlmostUniversalRV()
	set := rendezvous.DefaultSettings()
	set.MaxSegments = sz.missMaxSeg
	set.Parallelism = 1
	s := &batchSession{alg: alg, set: set,
		draw: func() [][]rendezvous.Instance {
			g := inst.NewGen(seed)
			pool := make([][]rendezvous.Instance, sz.missBatches)
			for b := range pool {
				for _, c := range missClasses {
					in := g.Draw(c)
					for in.Feasible() && rendezvous.Simulate(in, alg, set).Met {
						in = g.Draw(c)
					}
					pool[b] = append(pool[b], in)
				}
			}
			return pool
		},
		paper: func(r rendezvous.Result) error {
			if r.Met || r.Reason != sim.ReasonMaxSegments {
				return fmt.Errorf("infeasible or boundary instance ended %v, want a max-segments miss", r.Reason)
			}
			return nil
		}}
	return s, s.reference()
}

// reference draws the pool and simulates every batch serially, one
// rendezvous.Simulate per instance — no batch engine, no memo, no pool
// — checking the paper's claim on each result.
func (s *batchSession) reference() error {
	s.pool = s.draw()
	s.refRes = make([][]rendezvous.Result, len(s.pool))
	s.ref = make([][]byte, len(s.pool))
	for b, batch := range s.pool {
		for _, in := range batch {
			r := rendezvous.Simulate(in, s.alg, s.set)
			if err := s.paper(r); err != nil {
				return fmt.Errorf("reference batch %d: %w", b, err)
			}
			s.refRes[b] = append(s.refRes[b], r)
			s.ref[b] = wire.AppendResult(s.ref[b], r)
		}
	}
	return nil
}

// setup draws the inputs again, (re)dials the fleet when the workload
// has one, and warms the system up with one pass over the pool. An
// earlier fleet session is closed first, and the redrawn pool compared
// with the reference one, outside the timed spans.
func (s *batchSession) setup() (time.Duration, error) {
	s.close()
	start := time.Now()
	pool := s.draw()
	d := time.Since(start)
	if !reflect.DeepEqual(pool, s.pool) {
		return 0, errors.New("the instance generator drew a different pool from the same seed")
	}
	start = time.Now()
	if s.procs > 0 {
		fs := s.set
		fs.WorkerProcs = s.procs
		f, err := rendezvous.DialFleet(fs)
		if err != nil {
			return 0, fmt.Errorf("dialing the fleet: %w", err)
		}
		s.fleet = f
	}
	for i := range s.pool {
		s.do(i, nil, 0)
	}
	return d + time.Since(start), nil
}

func (s *batchSession) ops() int { return len(s.pool) }

func (s *batchSession) do(i int, tr *tracer, parent uint32) int {
	id := tr.begin("rendezvous.SimulateBatch", parent)
	if s.fleet != nil {
		s.last = s.fleet.SimulateBatch(s.pool[i], s.alg, s.set)
	} else {
		s.last = rendezvous.SimulateBatch(s.pool[i], s.alg, s.set)
	}
	tr.end(id)
	return len(s.pool[i])
}

func (s *batchSession) check(i int) error {
	for _, r := range s.last {
		if err := s.paper(r); err != nil {
			return err
		}
	}
	if !s.matches(i, s.last) {
		return fmt.Errorf("batch %d: result bytes differ from the serial reference", i)
	}
	return nil
}

// matches reports whether results encode to batch b's reference bytes.
func (s *batchSession) matches(b int, res []rendezvous.Result) bool {
	s.buf = s.buf[:0]
	for _, r := range res {
		s.buf = wire.AppendResult(s.buf, r)
	}
	return bytes.Equal(s.buf, s.ref[b])
}

func (s *batchSession) close() {
	if s.fleet != nil {
		s.fleet.Close()
		s.fleet = nil
	}
}

// ---- tables ----

// tableNames are the span names of the six table generators, in order.
var tableNames = []string{"exps.T1", "exps.T2", "exps.T3", "exps.T4", "exps.T5", "exps.T6"}

// tablesSession regenerates T1–T6 as rvtable does (seed offsets +0..+5)
// on a 2-wide pool; every regeneration must match the 1-wide reference
// byte for byte.
type tablesSession struct {
	gens  []func(exps.Budgets) *report.Table
	b     exps.Budgets
	ref   []string
	paper error // the reference's paper-check verdict
	last  []string

	t5Samples int // T5's sweep, replayed alone in traced runs
	t5Seed    int64
}

func tableGens(seed int64, sz size) []func(exps.Budgets) *report.Table {
	return []func(exps.Budgets) *report.Table{
		func(b exps.Budgets) *report.Table { return exps.T1(seed, sz.tablesN, b) },
		func(b exps.Budgets) *report.Table { return exps.T2(seed+1, sz.tablesN, b) },
		func(b exps.Budgets) *report.Table { return exps.T3(seed+2, sz.tablesT3N, b) },
		func(b exps.Budgets) *report.Table { return exps.T4(seed+3, b) },
		func(b exps.Budgets) *report.Table { return exps.T5(sz.t5Samples, seed+4, b) },
		func(b exps.Budgets) *report.Table { return exps.T6(seed+5, b) },
	}
}

func openTables(seed int64, sz size) (session, error) {
	s := &tablesSession{gens: tableGens(seed, sz), b: sz.budgets, t5Samples: sz.t5Samples, t5Seed: seed + 4}
	s.b.Workers = fleetShape
	refB := sz.budgets
	refB.Workers = 1
	var ts []*report.Table
	for _, gen := range s.gens {
		t := gen(refB)
		ts = append(ts, t)
		s.ref = append(s.ref, t.String())
	}
	s.paper = paperChecks(ts)
	return s, nil
}

// setup warms the 2-wide pool and the Monte-Carlo sweep with the two
// cheapest tables, T2 and T5.
func (s *tablesSession) setup() (time.Duration, error) {
	start := time.Now()
	s.gens[1](s.b)
	s.gens[4](s.b)
	return time.Since(start), nil
}

func (s *tablesSession) ops() int { return 1 }

// do regenerates all six tables; its simulation count is what the batch
// engine folded meanwhile (T1 and T6 run serial simulations outside the
// batch engine and are not counted).
func (s *tablesSession) do(_ int, tr *tracer, parent uint32) int {
	before := readCounters()
	s.last = s.last[:0]
	for k, gen := range s.gens {
		id := tr.begin(tableNames[k], parent)
		s.last = append(s.last, gen(s.b).String())
		tr.end(id)
	}
	return int(readCounters().delta(before, "rv_batch_jobs_total"))
}

func (s *tablesSession) check(int) error {
	if s.paper != nil {
		return s.paper
	}
	for k := range s.ref {
		if s.last[k] != s.ref[k] {
			return fmt.Errorf("%s differs from the 1-worker reference", tableNames[k])
		}
	}
	return nil
}

func (s *tablesSession) close() {}

// paperChecks verifies the reference tables against the paper: T1
// agrees n/n on every class, T2 meets n/n on every type, T4 has its
// four 5/5 rows plus the defeated adversary and the aligned S1 meet,
// and in T6 AURV meets exactly on the rows with δ > 0.
func paperChecks(ts []*report.Table) error {
	for _, row := range ts[0].Rows {
		if want := row[1] + "/" + row[1]; row[4] != want {
			return fmt.Errorf("T1 %q: agree %s, want %s", row[0], row[4], want)
		}
	}
	for _, row := range ts[1].Rows {
		if want := row[1] + "/" + row[1]; row[2] != want {
			return fmt.Errorf("T2 %s: met %s, want %s", row[0], row[2], want)
		}
	}
	full, defeated, aligned := 0, false, false
	for _, row := range ts[3].Rows {
		switch row[2] {
		case "5/5":
			full++
		case "defeated":
			defeated = true
		case "met at gap exactly r":
			aligned = true
		}
	}
	if full != 4 || !defeated || !aligned {
		return fmt.Errorf("T4: %d of 4 rows at 5/5, adversary defeated %v, aligned S1 met %v", full, defeated, aligned)
	}
	for _, row := range ts[5].Rows {
		delta, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return fmt.Errorf("T6: unreadable δ %q", row[0])
		}
		if met := strings.HasPrefix(row[2], "met"); met != (delta > 0) {
			return fmt.Errorf("T6 δ=%s: AURV %q, want a meet exactly when δ > 0", row[0], row[2])
		}
	}
	return nil
}
