// Command rvtable regenerates the experiment tables T1–T5 of the
// reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	rvtable                  # all tables
//	rvtable -exp T3 -csv     # one table, CSV output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/report"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvtable itself

	var (
		exp     = flag.String("exp", "all", "table id: T1..T6 or all")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		seed    = flag.Int64("seed", 1, "base random seed")
		n       = flag.Int("n", 5, "samples per class/type")
		workers = flag.Int("workers", 0, "batch-pool size, in-process and per worker process (0 = GOMAXPROCS); output is identical for every value")
		fl      = cli.FleetFlags(flag.CommandLine, "rvtable")
	)
	flag.Parse()

	b := exps.DefaultBudgets()
	b.Workers = *workers
	gens := map[string]func() *report.Table{
		"T1": func() *report.Table { return exps.T1(*seed, *n, b) },
		"T2": func() *report.Table { return exps.T2(*seed+1, *n, b) },
		"T3": func() *report.Table { return exps.T3(*seed+2, min(*n, 3), b) },
		"T4": func() *report.Table { return exps.T4(*seed+3, b) },
		"T5": func() *report.Table { return exps.T5(2_000_000, *seed+4, b) },
		"T6": func() *report.Table { return exps.T6(*seed+5, b) },
	}
	order := []string{"T1", "T2", "T3", "T4", "T5", "T6"}

	want := strings.ToUpper(*exp)
	if want != "ALL" {
		if _, ok := gens[want]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want T1..T6 or all)\n", *exp)
			os.Exit(2)
		}
	}

	// One fleet session for the whole invocation: the tables share the
	// dialed connections (one handshake per host for all of T1–T6).
	f, closeFleet, err := cli.Open(fl, dist.Dial)
	if err != nil {
		cli.Exit(err)
	}
	defer closeFleet()
	b.Fleet = f

	for _, id := range order {
		if want != "ALL" && want != id {
			continue
		}
		t := gens[id]()
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
}
