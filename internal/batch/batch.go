// Package batch is the parallel batch-execution engine of the
// reproduction: it fans independent simulation jobs out across a
// worker pool while keeping the output deterministic.
//
// Design invariant — parallel == serial, bit for bit. Each job is a
// self-contained simulation (an agent pair plus the settings bounding
// it); sim.Run is a pure function of its inputs, workers only ever
// write the result slot of the job they claimed, and every aggregate
// is computed in a serial post-pass over the results in input order.
// Scheduling therefore changes wall-clock time and nothing else: a
// batch run with 1 worker and with GOMAXPROCS workers produce
// byte-identical results, which is what lets the experiment tables and
// sweeps go parallel without perturbing a single reported number.
//
// The pool is a work-stealing-free claim counter: workers atomically
// take the next unclaimed job index until the slice is exhausted. A
// job that trips its own budget (MaxSegments, MaxTime) simply returns
// with the corresponding StopReason — it cannot wedge the pool,
// because budgets are enforced inside sim.Run per job.
//
// Batch-level memoization: jobs that declare a Key share work — within
// one Run, only the first job of each distinct Key executes and every
// later job with the same Key receives a copy of its result. Because
// sim.Run is a pure function of the job's inputs, the copied result is
// byte-identical to what the duplicate would have computed itself, so
// memoization preserves the parallel == serial determinism guarantee
// and every aggregate in Stats (which is still folded over the logical
// job list, duplicates included).
package batch

import (
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Job is one unit of batch work: a pair of agents and the settings
// bounding their simulation. Jobs must not share mutable state (each
// needs its own program iterators and, if used, its own progress
// observer); everything else about parallel safety is the pool's
// problem.
type Job struct {
	A, B     sim.AgentSpec
	Settings sim.Settings
	// Key, when non-nil, identifies the job's full simulation input for
	// batch-level memoization: jobs with equal Keys inside one Run
	// execute once and share the result. The Key must be comparable and
	// must truthfully cover everything the simulation depends on
	// (instance, algorithm identity, settings) — two jobs with equal
	// Keys but different inputs would silently share a wrong result.
	// Jobs with observers that must fire per job (e.g. a core.Progress
	// hook) should not set a Key: a memoized duplicate never runs, so
	// its observers never fire. nil (the default) disables memoization
	// for the job.
	Key any
	// Wire, when non-nil, is the serializable description of this job
	// (instance + registered algorithm name + settings): the form a
	// worker process can execute. Jobs without a wire form — programs
	// wired to observers, per-instance closure algorithms — always
	// execute in the coordinator process; internal/dist ships only
	// wire-formed jobs across the process boundary. Purity makes the
	// split invisible in the output.
	Wire *wire.Job
}

// Stats is the aggregate accounting of a batch, computed serially in
// input order after all workers have finished (so it is deterministic
// for every worker count).
type Stats struct {
	Jobs     int     // number of logical jobs in the batch
	Executed int     // simulations actually run (< Jobs when memoization shared results)
	Met      int     // jobs that achieved rendezvous
	Segments int64   // total program segments consumed across all jobs
	SimTime  float64 // total simulated time across all jobs (sum of EndTime)
	Workers  int     // workers actually used
}

// Workers resolves a requested parallelism degree: values ≤ 0 mean
// GOMAXPROCS, and the result is clamped to n so a small batch never
// spawns idle goroutines. (It is internal/pool's resolver, re-exported
// because batch callers size their pools through this package.)
func Workers(requested, n int) int { return pool.Workers(requested, n) }

// Run executes the jobs on a pool of workers (≤ 0 selects GOMAXPROCS)
// and returns the results in input order, plus aggregate accounting.
// Results are identical for every worker count. Jobs carrying equal
// non-nil Keys are memoized: the first occurrence (in input order)
// executes and the duplicates receive its result, so the returned slice
// and the Stats aggregates are byte-identical to a memoization-free run.
func Run(jobs []Job, workers int) ([]sim.Result, Stats) {
	results := make([]sim.Result, len(jobs))
	canon, uniq := Dedup(len(jobs), func(i int) any { return jobs[i].Key })

	w := Workers(workers, len(uniq))
	Do(len(uniq), w, func(k int) {
		i := uniq[k]
		results[i] = sim.Run(jobs[i].A, jobs[i].B, jobs[i].Settings)
	})
	for i, c := range canon {
		if c != i {
			// Deep-copy the traces so every slot owns its slices, as it
			// would had it run itself — callers may mutate trace points
			// in place (plot rescaling) without corrupting siblings.
			results[i] = results[c].CloneTraces()
		}
	}
	return results, FoldStats(results, len(uniq), w)
}

// Dedup computes the memoization structure of a job list: canon[i] is
// the index of the job whose result slot i receives (canon[i] == i for
// jobs that execute), and uniq lists the executing indices in input
// order. key(i) returns job i's memoization key; nil disables sharing
// for that job. The canonical index of every job is decided serially in
// input order, so the execution set — and with it every result — is
// independent of how the unique jobs are later scheduled (worker count,
// process count, host count).
func Dedup(n int, key func(i int) any) (canon []int, uniq []int) {
	canon = make([]int, n)
	uniq = make([]int, 0, n)
	var firstByKey map[any]int // nil until a key could still be matched
	for i := 0; i < n; i++ {
		canon[i] = i
		if k := key(i); k != nil {
			if f, ok := firstByKey[k]; ok { // lookup on a nil map is a miss
				canon[i] = f
				continue
			}
			// Remember the key only if a later job could still match it:
			// the final job canonicalizes nothing downstream, so it never
			// inserts — and a batch whose only keyed job is its last (the
			// single-job case in particular) never allocates the map at
			// all. When the map is needed, size it for every job that
			// remains so the hot all-distinct-keys path (auto-keyed
			// sweeps with no duplicates) pays one allocation instead of
			// log(n) rehash-and-grows.
			if i < n-1 {
				if firstByKey == nil {
					firstByKey = make(map[any]int, n-i)
				}
				firstByKey[k] = i
			}
		}
		uniq = append(uniq, i)
	}
	return canon, uniq
}

// FoldStats computes the aggregate accounting of a completed batch by a
// serial fold over the results in input order — the one way to
// aggregate that is deterministic for every execution schedule — and
// records it on the flight recorder. It is shared by every engine that
// fills a result slice (Run, RunStream, and the distributed
// coordinator of internal/dist).
func FoldStats(results []sim.Result, executed, workers int) Stats {
	st := fold(results, executed, workers)
	record(st)
	return st
}

func fold(results []sim.Result, executed, workers int) Stats {
	st := Stats{Jobs: len(results), Executed: executed, Workers: workers}
	for _, r := range results {
		if r.Met {
			st.Met++
		}
		st.Segments += int64(r.Segments)
		st.SimTime += r.EndTime.Float64()
	}
	return st
}

// record counts one completed batch on the flight recorder. Every
// engine's accounting funnels through it exactly once per batch (Run,
// a stream that completed, an in-process splice after a fleet
// failure), so it is the one place the recorder learns
// executed-vs-memoized counts.
func record(st Stats) {
	mJobs.Add(uint64(st.Jobs))
	mExecuted.Add(uint64(st.Executed))
	if shared := st.Jobs - st.Executed; shared > 0 {
		mMemoized.Add(uint64(shared))
	}
	mSegments.Add(uint64(max(st.Segments, 0)))
}

// Do runs fn(i) for every i in [0, n) on a pool of `workers`
// goroutines (callers should pre-resolve the count with Workers). It
// is the indexed-parallelism primitive under Run — internal/pool's
// claim-counter loop, re-exported for consumers whose work items are
// not agent pairs (those use Run). fn must be safe to call
// concurrently for distinct i; Do returns after every index has been
// processed.
func Do(n, workers int, fn func(i int)) { pool.Do(n, workers, fn) }
