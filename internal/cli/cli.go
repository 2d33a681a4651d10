// Package cli is the command-line plumbing the commands share: the
// observability flags of every command, and the fleet flags and fleet
// session of the coordinators (rvtable, rvfigures, rvsweep).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// Obs holds the observability flags: -metrics, -pprof and -log-level.
type Obs struct {
	name     string // the command, prefixing its log lines and errors
	metrics  string
	pprof    bool
	logLevel string
}

// ObsFlags declares the observability flags on fs for the command name.
func ObsFlags(fs *flag.FlagSet, name string) *Obs {
	o := &Obs{name: name}
	fs.StringVar(&o.metrics, "metrics", "", "HTTP address to expose the flight recorder on (/metrics, /statusz; empty: off)")
	fs.BoolVar(&o.pprof, "pprof", false, "also expose /debug/pprof/ on the -metrics address")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	return o
}

// Start installs the process logger on stderr at -log-level (a bad
// level is a usage error) and serves the flight recorder on -metrics
// when it names an address.
func (o *Obs) Start() error {
	if err := obs.InitLogging(os.Stderr, o.logLevel); err != nil {
		return usageError{fmt.Errorf("%s: %w", o.name, err)}
	}
	if o.metrics == "" {
		return nil
	}
	addr, err := obs.Serve(o.metrics, o.pprof)
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	slog.Info(o.name+": metrics listening", "addr", addr.String(), "pprof", o.pprof)
	return nil
}

// Fleet holds a coordinator's flags: the observability flags plus
// -worker, -hosts, -hosts-file, -window, -max-window, -stall,
// -max-requeues and -compress.
type Fleet struct {
	*Obs
	hosts, hostsFile string
	cfg              dist.Config // the roster is resolved by Start
}

// FleetFlags declares the coordinator flags on fs for the command name.
func FleetFlags(fs *flag.FlagSet, name string) *Fleet {
	f := &Fleet{Obs: ObsFlags(fs, name)}
	fs.IntVar(&f.cfg.Procs, "worker", 0, "local worker subprocesses for wire-formed jobs (distributed execution)")
	fs.StringVar(&f.hosts, "hosts", "", "comma-separated rvworker -listen endpoints, each addr or addr*pool (distributed execution)")
	fs.StringVar(&f.hostsFile, "hosts-file", "", "file of rvworker endpoints (-hosts syntax, newline- or comma-separated, '#' comments), watched for edits while the run is live; mutually exclusive with -hosts")
	fs.IntVar(&f.cfg.Window, "window", 0, "jobs in flight per worker connection (0 = adaptive; 1 = synchronous)")
	fs.IntVar(&f.cfg.MaxWindow, "max-window", 0, "adaptive window growth cap per connection (0 = default; <0 = fixed default window)")
	fs.DurationVar(&f.cfg.StallTimeout, "stall", 0, "liveness deadline for a silent worker connection with jobs in flight (0 = 30s default; <0 = disabled)")
	fs.IntVar(&f.cfg.MaxJobRequeues, "max-requeues", 0, "distinct workers a job may kill or stall before it is quarantined as a poison job (0 = 2 default; <0 = disabled)")
	fs.BoolVar(&f.cfg.Compress, "compress", false, "negotiate flate compression with TCP workers (WAN links; output is identical either way)")
	return f
}

// Start runs Obs.Start and resolves the roster from -hosts or the
// -hosts-file file. Naming both, a malformed addr*pool entry, or an
// unreadable hosts file is a usage error.
func (f *Fleet) Start() error {
	if err := f.Obs.Start(); err != nil {
		return err
	}
	var err error
	switch {
	case f.hosts != "" && f.hostsFile != "":
		err = errors.New("-hosts and -hosts-file are mutually exclusive")
	case f.hostsFile != "":
		f.cfg.Hosts, err = dist.LoadHostsFile(f.hostsFile)
	default:
		f.cfg.Hosts, err = dist.ParseHosts(f.hosts)
	}
	if err != nil {
		return usageError{fmt.Errorf("%s: %w", f.name, err)}
	}
	return nil
}

// Session is what Open manages of a fleet session; *dist.Fleet and
// *rendezvous.Fleet both have it.
type Session interface {
	WatchHosts(path string, interval time.Duration) (stop func(), err error)
	Close() error
}

// Open runs Start, dials the fleet the flags name and, with
// -hosts-file, watches that file so roster edits reshape the session;
// the returned function stops the watcher and closes the session. With
// no fleet named, or one that fails to dial (counted and logged once by
// dist.Unreachable, never retried), the session is the zero S and the
// command runs in-process, which determinism makes invisible in its
// output.
func Open[S Session](f *Fleet, dial func(dist.Config) (S, error)) (S, func(), error) {
	var none S
	if err := f.Start(); err != nil {
		return none, nil, err
	}
	if !f.cfg.Enabled() {
		return none, func() {}, nil
	}
	s, err := dial(f.cfg)
	if err != nil {
		dist.Unreachable(f.cfg, fmt.Errorf("%s: %w", f.name, err))
		return none, func() {}, nil
	}
	if f.hostsFile == "" {
		return s, func() { s.Close() }, nil
	}
	stop, err := s.WatchHosts(f.hostsFile, 0)
	if err != nil {
		s.Close()
		return none, nil, fmt.Errorf("%s: %w", f.name, err)
	}
	return s, func() { stop(); s.Close() }, nil
}

// usageError marks a bad flag value or combination.
type usageError struct{ error }

// Exit prints err to stderr and ends the process: status 2 for a usage
// error (as for a flag that does not parse), 1 for a runtime failure.
func Exit(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(exitCode(err))
}

func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
