// Command rvfigures regenerates the paper's five figures as SVG files
// drawn from computed geometry and simulated trajectories.
//
// Usage:
//
//	rvfigures -out figures/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/exps"
)

func main() {
	dist.MaybeServeStdio() // single-binary deploys: -worker re-executes rvfigures itself

	out := flag.String("out", "figures", "output directory")
	workers := flag.Int("workers", 0, "batch-pool size for simulated figures, in-process and per worker process (0 = GOMAXPROCS)")
	fl := cli.FleetFlags(flag.CommandLine, "rvfigures")
	flag.Parse()

	// One fleet session for all figures (see rvtable).
	f, closeFleet, err := cli.Open(fl, dist.Dial)
	if err != nil {
		cli.Exit(err)
	}
	defer closeFleet()
	b := exps.DefaultBudgets()
	b.Workers = *workers
	b.Fleet = f

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for name, doc := range exps.Figures(b) {
		path := filepath.Join(*out, name+".svg")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}
}
