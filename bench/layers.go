package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/batch"
	"repro/internal/dist"
	"repro/internal/inst"
	"repro/internal/measure"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/rendezvous"
)

// noopAlg is a registered algorithm whose agents never move: a fleet
// run of it costs the dispatch, codec, transport and worker turn-around
// of a job and no simulation. Spawned workers re-execute this binary,
// so they register it too.
const noopAlg = "bench-noop"

func init() {
	wire.RegisterAlgorithm(noopAlg, func(inst.Instance) prog.Program { return prog.Empty() })
}

// repeatFor runs pass under a span until at least d has elapsed, at
// least once, and returns the number of passes and the time they took.
func repeatFor(tr *tracer, name string, d time.Duration, pass func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		id := tr.begin(name, 0)
		pass()
		tr.end(id)
		n++
	}
	return n, time.Since(start)
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ledgerRow is one line of the per-sim cost ledger.
type ledgerRow struct {
	Name     string  `json:"name"`
	NsPerSim float64 `json:"ns_per_sim"`
}

// layers is the outcome of a traced run's replays.
type layers struct {
	metrics   map[string]float64
	ledger    []ledgerRow
	attempted int // replayed batches, checked like ops
	failed    int
}

// layerMetrics derives the per-layer metrics of a traced run: the
// timed phase's registry and runtime deltas, then replays of the
// workload's own inputs through each layer's public functions.
func layerMetrics(s session, ph *phase, tr *tracer, minReplay time.Duration) (*layers, error) {
	l := &layers{metrics: map[string]float64{}}
	for _, d := range perLayer {
		l.metrics[d.Name] = 0
	}
	m := l.metrics
	if t, u := &ph.traced.hist, &ph.untraced.hist; t.N() > 0 && u.N() > 0 {
		m["trace.overhead_frac"] = t.Median()/u.Median() - 1
	}
	if sims := ph.sims(); sims > 0 {
		m["go.alloc_bytes_per_sim"] = float64(ph.mem.TotalAlloc-ph.memBefore.TotalAlloc) / float64(sims)
	}
	m["go.gc_pause_frac"] = float64(ph.mem.PauseTotalNs-ph.memBefore.PauseTotalNs) / float64(ph.wall)
	if jobs := ph.after.delta(ph.before, "rv_batch_jobs_total"); jobs > 0 {
		m["batch.executed_frac"] = ph.after.delta(ph.before, "rv_batch_executed_total") / jobs
	}
	var err error
	switch s := s.(type) {
	case *batchSession:
		err = batchLayers(s, ph, tr, l, minReplay)
	case *tablesSession:
		tablesLayers(s, tr, m, minReplay)
	}
	return l, err
}

// jobs builds batch b's job list the way rendezvous.SimulateBatch does:
// two fresh programs per instance, the bare instance as memo key, and
// the wire form a worker can execute.
func (s *batchSession) jobs(b int) []batch.Job {
	js := make([]batch.Job, len(s.pool[b]))
	for i, in := range s.pool[b] {
		js[i] = batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: s.alg.Program(in), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: s.alg.Program(in), Radius: in.R},
			Settings: s.set,
			Key:      in,
			Wire:     &wire.Job{In: in, Alg: dist.AlgAURVCompact, Set: s.set},
		}
	}
	return js
}

// drain pulls n instructions from two cursors in turn, as the engine
// pulls from its two agents, and returns how many it got.
func drain(a, b prog.Cursor, n int) int {
	got := 0
	for aOK, bOK := true, true; got < n && (aOK || bOK); {
		if aOK {
			if _, aOK = a.Next(); aOK {
				got++
			}
		}
		if bOK && got < n {
			if _, bOK = b.Next(); bOK {
				got++
			}
		}
	}
	return got
}

func batchLayers(s *batchSession, ph *phase, tr *tracer, l *layers, minReplay time.Duration) error {
	m := l.metrics
	if s.procs > 0 {
		sims := float64(ph.sims())
		m["frame.tx_bytes_per_sim"] = ph.after.delta(ph.before, "rv_wire_tx_bytes_total") / sims
		m["frame.rx_bytes_per_sim"] = ph.after.delta(ph.before, "rv_wire_rx_bytes_total") / sims
		m["dist.requeued"] = ph.after.delta(ph.before, "rv_dist_requeued_total")
		m["dist.deaths"] = ph.after.delta(ph.before, "rv_dist_worker_deaths_total")
		live, window := 0, 0
		for _, sl := range s.fleet.Snapshot().Slots {
			if sl.Live {
				live++
				window += sl.Window
			}
		}
		if live > 0 {
			m["dist.window"] = float64(window) / float64(live)
		}
	}

	nSims, executed, segs := 0, 0, 0
	jobs := make([][]batch.Job, len(s.pool))
	uniqs := make([][]int, len(s.pool))
	for b := range s.pool {
		jobs[b] = s.jobs(b)
		_, uniqs[b] = batch.Dedup(len(jobs[b]), func(i int) any { return jobs[b][i].Key })
		nSims += len(jobs[b])
		executed += len(uniqs[b])
		for _, i := range uniqs[b] {
			segs += s.refRes[b][i].Segments
		}
	}
	execFrac := float64(executed) / float64(nSims)

	// The ledger. Each row's call and the end-to-end call take turns over
	// the same chunk of batches, chunk after chunk, so a drift in host
	// speed hits every row alike and the rows can be summed. A chunk
	// holds about chunkTarget of in-process work: long enough to keep each
	// call's code warm, as in a run of back-to-back batches, and short
	// enough that the turns interleave finely.
	const chunkTarget = 2 * time.Millisecond
	t0 := time.Now()
	for _, batch := range s.pool {
		rendezvous.SimulateBatch(batch, s.alg, s.set)
	}
	chunk := min(len(s.pool), max(1, int(chunkTarget*time.Duration(len(s.pool))/time.Since(t0))))

	var tBuild, tBatch, tSim, tDrain, tInproc, tFleet time.Duration
	instrs := 0
	check := func(b int, res []sim.Result) {
		l.attempted++
		if !s.matches(b, res) {
			l.failed++
		}
	}
	results := make([][]sim.Result, len(s.pool))
	rounds, _ := repeatFor(tr, "replay.ledger", 4*minReplay, func() {
		for lo := 0; lo < len(s.pool); lo += chunk {
			hi := min(lo+chunk, len(s.pool))
			timed := func(acc *time.Duration, call func(b int)) {
				t0 := time.Now()
				for b := lo; b < hi; b++ {
					call(b)
				}
				*acc += time.Since(t0)
			}
			checkChunk := func() {
				for b := lo; b < hi; b++ {
					check(b, results[b])
				}
			}
			// Build and run each batch back to back, as SimulateBatch does,
			// so the run finds the freshly built jobs where it would.
			for b := lo; b < hi; b++ {
				t0 := time.Now()
				jobs[b] = s.jobs(b)
				t1 := time.Now()
				results[b], _ = batch.Run(jobs[b], 1)
				tBuild += t1.Sub(t0)
				tBatch += time.Since(t1)
			}
			checkChunk()
			timed(&tSim, func(b int) {
				for _, i := range uniqs[b] {
					sim.Run(jobs[b][i].A, jobs[b][i].B, jobs[b][i].Settings)
				}
			})
			timed(&tDrain, func(b int) {
				for _, i := range uniqs[b] {
					ca, cb := prog.NewCursor(jobs[b][i].A.Prog), prog.NewCursor(jobs[b][i].B.Prog)
					instrs += drain(ca, cb, s.refRes[b][i].Segments)
					ca.Close()
					cb.Close()
				}
			})
			timed(&tInproc, func(b int) { results[b] = rendezvous.SimulateBatch(s.pool[b], s.alg, s.set) })
			checkChunk()
			if s.fleet != nil {
				timed(&tFleet, func(b int) { results[b] = s.fleet.SimulateBatch(s.pool[b], s.alg, s.set) })
				checkChunk()
			}
		}
	})
	s.close() // what follows runs in-process
	per := func(d time.Duration, n int) float64 { return float64(d) / float64(rounds*n) }
	jobsNs, batchNs, inprocNs := per(tBuild, nSims), per(tBatch, nSims), per(tInproc, nSims)
	runNs, drainNs := per(tSim, executed), per(tDrain, executed)
	m["sim.run_ns_per_sim"] = runNs
	m["sim.segments_per_s"] = float64(rounds*segs) / tSim.Seconds()
	m["sim.segments_per_sim"] = float64(segs) / float64(executed)
	m["prog.instrs_per_s"] = float64(instrs) / tDrain.Seconds()
	m["sim.engine_self_ns_per_sim"] = runNs - drainNs
	m["batch.run_ns_per_sim"] = batchNs
	m["batch.self_ns_per_sim"] = batchNs - runNs*execFrac
	rows := []ledgerRow{
		{"job build (2 programs, memo key, wire form)", jobsNs},
		{"batch.Run: sim.Run (cursor build + drain + engine)", runNs * execFrac},
		{"batch.Run: self (dedup, memo copies, fold, pool)", batchNs - runNs*execFrac},
	}
	sum := jobsNs + batchNs
	m["ledger.inproc_sum_frac"] = sum / inprocNs
	l.ledger = append(rows,
		ledgerRow{"in-process: sum of rows", sum},
		ledgerRow{"in-process: rendezvous.SimulateBatch", inprocNs},
		ledgerRow{"timed phase: end to end", ph.perSimNs()})

	runAll := func() {
		for b, js := range jobs {
			for _, i := range uniqs[b] {
				sim.Run(js[i].A, js[i].B, js[i].Settings)
			}
		}
	}
	m["sim.allocs_per_sim"] = float64(mallocs(runAll)) / float64(executed)
	build := func() {
		for _, batch := range s.pool {
			for _, in := range batch {
				a, b := prog.NewCursor(s.alg.Program(in)), prog.NewCursor(s.alg.Program(in))
				a.Close()
				b.Close()
			}
		}
	}
	passes, el := repeatFor(tr, "replay.prog.build", minReplay, build)
	m["prog.build_ns_per_sim"] = float64(el) / float64(passes*nSims)
	m["prog.allocs_per_sim"] = float64(mallocs(build)) / float64(nSims)

	// batch.Run taken apart into the public calls it makes — Dedup, one
	// sim.Run per distinct job, the memo copies, FoldStats — each under
	// its own span, and checked against the reference.
	var dedupNs, foldNs time.Duration
	passes, _ = repeatFor(tr, "replay.batch.parts", minReplay, func() {
		for b, js := range jobs {
			root := tr.begin("replay.batch", 0)
			id := tr.begin("batch.Dedup", root)
			canon, uniq := batch.Dedup(len(js), func(i int) any { return js[i].Key })
			tr.end(id)
			dedupNs += tr.dur(id)
			res := make([]sim.Result, len(js))
			for _, i := range uniq {
				id := tr.begin("sim.Run", root)
				res[i] = sim.Run(js[i].A, js[i].B, js[i].Settings)
				tr.end(id)
			}
			for i, c := range canon {
				if c != i {
					res[i] = res[c].CloneTraces()
				}
			}
			id = tr.begin("batch.FoldStats", root)
			batch.FoldStats(res, len(uniq), 1)
			tr.end(id)
			foldNs += tr.dur(id)
			tr.end(root)
			check(b, res)
		}
	})
	m["batch.dedup_ns_per_job"] = float64(dedupNs) / float64(passes*nSims)
	m["batch.fold_ns_per_job"] = float64(foldNs) / float64(passes*nSims)

	// Wire codec and framing of every shipped (distinct) job and its
	// reference result.
	var jobB, resB [][]byte
	for b, js := range jobs {
		for _, i := range uniqs[b] {
			jobB = append(jobB, wire.EncodeJob(*js[i].Wire))
			resB = append(resB, wire.EncodeResult(s.refRes[b][i]))
		}
	}
	for k := range jobB {
		m["wire.job_bytes"] += float64(len(jobB[k])) / float64(len(jobB))
		m["wire.result_bytes"] += float64(len(resB[k])) / float64(len(resB))
	}
	passes, el = repeatFor(tr, "replay.wire.encode", minReplay, func() {
		for b, js := range jobs {
			for _, i := range uniqs[b] {
				wire.EncodeJob(*js[i].Wire)
				wire.EncodeResult(s.refRes[b][i])
			}
		}
	})
	m["wire.encode_ns_per_job"] = float64(el) / float64(passes*len(jobB))
	var codecErr error
	passes, el = repeatFor(tr, "replay.wire.decode", minReplay, func() {
		for k := range jobB {
			if _, err := wire.DecodeJob(jobB[k]); err != nil {
				codecErr = err
			}
			if _, err := wire.DecodeResult(resB[k]); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return fmt.Errorf("wire replay: %w", codecErr)
	}
	m["wire.decode_ns_per_job"] = float64(el) / float64(passes*len(jobB))
	var buf bytes.Buffer
	fw, fr := wire.NewFrameWriter(&buf), wire.NewFrameReader(&buf)
	roundtrip := func(typ byte, seq uint64, payload []byte) {
		if err := fw.WriteFrameSeq(typ, seq, payload); err != nil {
			codecErr = err
			return
		}
		_, pb, err := fr.ReadFrame()
		if err != nil {
			codecErr = err
			return
		}
		pb.Release()
	}
	passes, el = repeatFor(tr, "replay.frame.roundtrip", minReplay, func() {
		for k := range jobB {
			roundtrip(wire.FrameJob, uint64(k), jobB[k])
			roundtrip(wire.FrameResult, uint64(k), resB[k])
		}
	})
	if codecErr != nil {
		return fmt.Errorf("frame replay: %w", codecErr)
	}
	m["frame.roundtrip_ns_per_job"] = float64(el) / float64(passes*len(jobB))

	if s.procs > 0 {
		noopNs, err := noopPerJob(s, tr, 4*minReplay)
		if err != nil {
			return err
		}
		m["dist.noop_us_per_job"] = noopNs / 1e3
		fleetNs := per(tFleet, nSims)
		gap := fleetNs - inprocNs
		m["ledger.fleet_gap_us_per_sim"] = gap / 1e3
		codec := m["wire.encode_ns_per_job"] + m["wire.decode_ns_per_job"]
		attributed := execFrac * (codec + m["frame.roundtrip_ns_per_job"] + noopNs)
		m["ledger.fleet_unattributed_frac"] = 1 - attributed/gap
		l.ledger = append(l.ledger,
			ledgerRow{"fleet: codec (encode+decode)", execFrac * codec},
			ledgerRow{"fleet: frame round trip", execFrac * m["frame.roundtrip_ns_per_job"]},
			ledgerRow{"fleet: noop dispatch", execFrac * noopNs},
			ledgerRow{"fleet: unattributed", gap - attributed},
			ledgerRow{"fleet: gap to in-process", gap},
			ledgerRow{"fleet: Fleet.SimulateBatch", fleetNs},
		)
	}
	return nil
}

// noopPerJob times batches of bench-noop jobs over a fresh fleet
// session of the workload's shape and returns the ns per job.
func noopPerJob(s *batchSession, tr *tracer, d time.Duration) (float64, error) {
	f, err := dist.Dial(dist.Config{Procs: s.procs})
	if err != nil {
		return 0, fmt.Errorf("dialing the noop fleet: %w", err)
	}
	defer f.Close()
	var js []batch.Job
	for _, in := range s.pool[0] {
		js = append(js, batch.Job{
			A:        sim.AgentSpec{Attrs: in.AgentA(), Prog: prog.Empty(), Radius: in.R},
			B:        sim.AgentSpec{Attrs: in.AgentB(), Prog: prog.Empty(), Radius: in.R},
			Settings: s.set,
			Wire:     &wire.Job{In: in, Alg: noopAlg, Set: s.set},
		})
	}
	var runErr error
	run := func() {
		if _, _, err := f.Run(js, 1); err != nil {
			runErr = err
		}
	}
	run() // warm the session's windows
	passes, el := repeatFor(tr, "replay.dist.Fleet.Run", d, run)
	if runErr != nil {
		return 0, fmt.Errorf("noop fleet run: %w", runErr)
	}
	return float64(el) / float64(passes*len(js)), nil
}

// tablesLayers reads the per-table times off the traced ops' spans and
// times the T5 Monte-Carlo sweep on its own.
func tablesLayers(s *tablesSession, tr *tracer, m map[string]float64, minReplay time.Duration) {
	perTable := map[string][]float64{}
	sumByOp := map[uint32]time.Duration{}
	opDo := map[uint32]time.Duration{}
	for _, sp := range tr.spans {
		d := time.Duration(sp.end - sp.start)
		switch {
		case sp.parent == 0 && sp.name == "op":
			opDo[sp.op] += d
		case sp.name == "check":
			opDo[sp.op] -= d
		case sp.parent != 0:
			perTable[sp.name] = append(perTable[sp.name], d.Seconds())
			sumByOp[sp.op] += d
		}
	}
	for k, name := range tableNames {
		if xs := perTable[name]; len(xs) > 0 {
			m[fmt.Sprintf("exps.t%d_s", k+1)] = stats.Median(xs)
		}
	}
	var fracs []float64
	for op, sum := range sumByOp {
		fracs = append(fracs, float64(sum)/float64(opDo[op]))
	}
	if len(fracs) > 0 {
		m["ledger.inproc_sum_frac"] = stats.Median(fracs)
	}
	eps := []float64{0.25, 0.35, 0.5}
	passes, el := repeatFor(tr, "replay.measure.SweepParallel", minReplay, func() {
		measure.SweepParallel(s.t5Samples, eps, measure.DefaultBox(), s.t5Seed, fleetShape)
	})
	m["measure.samples_per_s"] = float64(passes*s.t5Samples) / el.Seconds()
}
