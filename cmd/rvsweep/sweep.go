package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/dist"
	"repro/rendezvous"
)

// Point is one sweep sample: the swept parameter value and the instance
// it induces.
type Point struct {
	Value float64
	Inst  rendezvous.Instance
}

// Points constructs the geometrically spaced sweep points for one of
// the three sweep modes (delay | ratio | radius). Points whose induced
// instance fails validation are skipped and reported in the second
// return value; an unknown mode is an error.
func Points(mode string, from, to float64, steps int) (pts []Point, skipped []error, err error) {
	switch mode {
	case "delay", "ratio", "radius":
	default:
		return nil, nil, fmt.Errorf("unknown sweep %q (want delay | ratio | radius)", mode)
	}
	for k := 0; k < steps; k++ {
		frac := float64(k) / math.Max(1, float64(steps-1))
		v := from * math.Pow(to/from, frac)

		var in rendezvous.Instance
		switch mode {
		case "delay":
			in = rendezvous.Instance{R: 0.8, X: 0.9, Y: 0.1, Phi: 1.1, Tau: 1, V: 1.5, T: v, Chi: 1}
		case "ratio":
			in = rendezvous.Instance{R: 0.5, X: 1.2, Y: 0.6, Phi: 0.8, Tau: v, V: 1 / v, T: 0.5, Chi: 1}
		case "radius":
			in = rendezvous.Instance{R: v, X: 1.1, Y: 0, Phi: 0, Tau: 1, V: 1, Chi: -1}
			in.T = in.ProjGap() - v + 0.5
		}
		if verr := in.Validate(); verr != nil {
			skipped = append(skipped, fmt.Errorf("point %g: %w", v, verr))
			continue
		}
		pts = append(pts, Point{Value: v, Inst: in})
	}
	return pts, skipped, nil
}

// SweepSettings assembles the simulation settings of a sweep run: the
// segment budget and the batch-pool size (also forwarded to workers as
// their in-process pool).
func SweepSettings(maxSeg, workers int) rendezvous.Settings {
	set := rendezvous.DefaultSettings()
	set.MaxSegments = maxSeg
	set.Parallelism = workers
	return set
}

// dialFleet opens the fleet session cfg names for a sweep of n points
// through the public API the sweep runs on (rvsweep's dial for
// cli.Open). Like the one-shot dist.RunStream it dials at most one
// worker subprocess and one host per point: a wider fleet has workers
// that never claim a job yet still pay their spawn and handshake. (A
// watched hosts file still brings in every host it lists.)
func dialFleet(cfg dist.Config, n int) (*rendezvous.Fleet, error) {
	n = max(n, 1)
	cfg.Procs = min(cfg.Procs, n)
	cfg.Hosts = cfg.Hosts[:min(len(cfg.Hosts), n)]
	return rendezvous.DialFleet(rendezvous.Settings{
		Hosts: dist.FormatHosts(cfg.Hosts), WorkerProcs: cfg.Procs,
		Window: cfg.Window, MaxWindow: cfg.MaxWindow,
		StallTimeout: cfg.StallTimeout, MaxJobRequeues: cfg.MaxJobRequeues,
		Compress: cfg.Compress,
	})
}

// SweepCSV simulates every point under AlmostUniversalRV on a pool of
// `workers` goroutines and renders the CSV document (header + one row
// per point, in sweep order). The batch engine guarantees the document
// is byte-identical for every worker count.
func SweepCSV(mode string, pts []Point, maxSeg, workers int) string {
	var b strings.Builder
	StreamCSV(&b, mode, pts, SweepSettings(maxSeg, workers), nil)
	return b.String()
}

// StreamCSV renders the same document as SweepCSV but writes each row
// the moment the ordered result prefix completes, instead of after the
// whole batch drains: a sweep whose early points are cheap prints them
// while the pool is still grinding through the expensive tail. The
// points run over the fleet session f — whose live membership may be
// reshaping it mid-sweep — or in-process when f is nil. The emitted
// bytes are identical to SweepCSV's for every worker count, pool size,
// and fleet — streaming changes when rows appear, never what they say.
func StreamCSV(w io.Writer, mode string, pts []Point, set rendezvous.Settings, f *rendezvous.Fleet) {
	streamCSV(w, mode, pts, set, rendezvous.AlmostUniversalRV(), f)
}

// streamCSV is StreamCSV with the algorithm injectable (tests gate a
// custom algorithm to observe rows appearing before the batch ends).
func streamCSV(w io.Writer, mode string, pts []Point, set rendezvous.Settings, alg rendezvous.Algorithm, f *rendezvous.Fleet) {
	ins := make([]rendezvous.Instance, len(pts))
	for i, p := range pts {
		ins[i] = p.Inst
	}
	simulate := rendezvous.SimulateBatchStream
	if f != nil {
		simulate = f.SimulateBatchStream
	}
	fmt.Fprintf(w, "%s,meet_time,min_gap,segments\n", mode)
	i := 0
	for res := range simulate(ins, alg, set) {
		meet := math.NaN()
		if res.Met {
			meet = res.MeetTime.Float64()
		}
		fmt.Fprintf(w, "%g,%g,%g,%d\n", pts[i].Value, meet, res.MinGap, res.Segments)
		i++
	}
}
