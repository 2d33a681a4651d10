// Command rvsweep emits CSV series of rendezvous time versus one swept
// instance parameter — the data behind the scaling benchmarks (meeting
// time vs delay, clock ratio, or visibility radius). The points run in
// parallel on a worker pool — or across worker processes/hosts with
// -worker/-hosts — and rows stream out as the ordered result prefix
// completes. The emitted CSV is byte-identical for every -workers,
// -worker, and -hosts value.
//
// Usage:
//
//	rvsweep -sweep delay -from 0.5 -to 32 -steps 8
//	rvsweep -sweep ratio -from 1.1 -to 4 -steps 8
//	rvsweep -sweep radius -from 0.4 -to 1.2 -steps 8 -workers 4
//	rvsweep -sweep delay -steps 8 -worker 2            # 2 local worker processes
//	rvsweep -sweep delay -hosts host1:9101,host2:9101  # remote rvworker fleet
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/rendezvous"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvsweep itself

	var (
		sweep   = flag.String("sweep", "delay", "parameter: delay | ratio | radius")
		from    = flag.Float64("from", 0.5, "sweep start")
		to      = flag.Float64("to", 32, "sweep end")
		steps   = flag.Int("steps", 8, "number of points (geometric spacing)")
		seg     = flag.Int("max-seg", 400_000_000, "segment budget per run")
		workers = flag.Int("workers", 0, "batch-pool size, in-process and per worker process (0 = GOMAXPROCS)")
		fl      = cli.FleetFlags(flag.CommandLine, "rvsweep")
	)
	flag.Parse()

	pts, skipped, err := Points(*sweep, *from, *to, *steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, s := range skipped {
		fmt.Fprintln(os.Stderr, s)
	}
	// A named fleet serves the whole sweep as one session; f is nil (and
	// the points run in-process) when none is named or it cannot be dialed.
	f, closeFleet, err := cli.Open(fl, func(cfg dist.Config) (*rendezvous.Fleet, error) {
		return dialFleet(cfg, len(pts))
	})
	if err != nil {
		cli.Exit(err)
	}
	defer closeFleet()
	// Unbuffered stdout: Fprintf issues one Write per row, so each row
	// is visible (even through a pipe) the moment its result prefix
	// completes.
	StreamCSV(os.Stdout, *sweep, pts, SweepSettings(*seg, *workers), f)
}
