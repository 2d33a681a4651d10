package main

// metricDef declares one reported metric. BENCHMARK.json repeats the
// name, unit and direction (and adds the regression bound of the
// end-to-end ones); TestCatalogMatchesBenchmarkJSON keeps the two in
// step.
type metricDef struct {
	Name, Unit, Better string
	// Moves names the end-to-end metric a change to this layer should
	// move, and On the workloads it should move it on. Only per-layer
	// metrics set them; the ledger.* and trace.* diagnostics move
	// nothing.
	Moves string
	On    []string
	// MayBeZero marks metrics that legitimately read 0 on their own
	// workloads (fault counts on a healthy run, a ratio that can cancel).
	MayBeZero bool
}

const (
	wMeetInproc = "meet-inproc"
	wMeetFleet  = "meet-fleet"
	wMissInproc = "miss-inproc"
	wTables     = "tables"
)

var (
	meetBoth = []string{wMeetInproc, wMeetFleet}
	batchAll = []string{wMeetInproc, wMeetFleet, wMissInproc}
	fleet    = []string{wMeetFleet}
	tables   = []string{wTables}
)

// endToEnd are the metrics a user of the system sees, emitted by every
// untraced run. An op is one closed-loop call into the system: a
// SimulateBatch call on the batch workloads, one full T1–T6
// regeneration on tables.
var endToEnd = []metricDef{
	{Name: "sims_per_s", Unit: "sims/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the ledger metrics of a traced run. A layer that a
// workload does not load reports 0 there.
var perLayer = []metricDef{
	{Name: "prog.build_ns_per_sim", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: meetBoth},
	{Name: "prog.instrs_per_s", Unit: "instrs/s", Better: "higher", Moves: "sims_per_s", On: batchAll},
	{Name: "prog.allocs_per_sim", Unit: "allocs", Better: "lower", Moves: "sims_per_s", On: meetBoth},

	{Name: "sim.run_ns_per_sim", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: batchAll},
	{Name: "sim.segments_per_s", Unit: "segments/s", Better: "higher", Moves: "sims_per_s", On: batchAll},
	{Name: "sim.engine_self_ns_per_sim", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: batchAll},
	{Name: "sim.segments_per_sim", Unit: "count", Better: "lower", Moves: "sims_per_s", On: batchAll},
	{Name: "sim.allocs_per_sim", Unit: "allocs", Better: "lower", Moves: "sims_per_s", On: meetBoth},

	{Name: "batch.run_ns_per_sim", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: batchAll},
	{Name: "batch.self_ns_per_sim", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: meetBoth, MayBeZero: true},
	{Name: "batch.dedup_ns_per_job", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: meetBoth},
	{Name: "batch.fold_ns_per_job", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: meetBoth},
	{Name: "batch.executed_frac", Unit: "frac", Better: "lower", Moves: "sims_per_s", On: meetBoth},

	{Name: "wire.job_bytes", Unit: "bytes", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "wire.result_bytes", Unit: "bytes", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "wire.encode_ns_per_job", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "wire.decode_ns_per_job", Unit: "ns", Better: "lower", Moves: "op_p50_ms", On: fleet},

	{Name: "frame.roundtrip_ns_per_job", Unit: "ns", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "frame.tx_bytes_per_sim", Unit: "bytes", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "frame.rx_bytes_per_sim", Unit: "bytes", Better: "lower", Moves: "sims_per_s", On: fleet},

	{Name: "dist.noop_us_per_job", Unit: "us", Better: "lower", Moves: "sims_per_s", On: fleet},
	{Name: "dist.requeued", Unit: "count", Better: "lower", Moves: "sims_per_s", On: fleet, MayBeZero: true},
	{Name: "dist.deaths", Unit: "count", Better: "lower", Moves: "setup_s", On: fleet, MayBeZero: true},
	{Name: "dist.window", Unit: "jobs", Better: "higher", Moves: "sims_per_s", On: fleet},

	{Name: "measure.samples_per_s", Unit: "samples/s", Better: "higher", Moves: "op_p50_ms", On: tables},

	{Name: "exps.t1_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},
	{Name: "exps.t2_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},
	{Name: "exps.t3_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},
	{Name: "exps.t4_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},
	{Name: "exps.t5_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},
	{Name: "exps.t6_s", Unit: "s", Better: "lower", Moves: "op_p50_ms", On: tables},

	{Name: "go.alloc_bytes_per_sim", Unit: "bytes", Better: "lower", Moves: "sims_per_s", On: batchAll},
	{Name: "go.gc_pause_frac", Unit: "frac", Better: "lower", Moves: "op_tail_ms", On: meetBoth, MayBeZero: true},

	{Name: "ledger.inproc_sum_frac", Unit: "frac", Better: "higher", On: []string{wMeetInproc, wMissInproc, wTables}},
	{Name: "ledger.fleet_gap_us_per_sim", Unit: "us", Better: "lower", On: fleet},
	{Name: "ledger.fleet_unattributed_frac", Unit: "frac", Better: "lower", On: fleet, MayBeZero: true},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", On: []string{wMeetInproc, wMeetFleet, wMissInproc, wTables}, MayBeZero: true},
}
