package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// fleetShape is the widest load any workload puts on the host: two
// worker processes (meet-fleet) or a 2-wide pool (tables).
const fleetShape = 2

// hostInfo is the provenance block of every result.
type hostInfo struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	CPUModel    string `json:"cpu_model"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
	// CoresBelowShape marks hosts with fewer cores than the 2-wide
	// workloads use: their meet-fleet and tables figures are not
	// comparable with a host that has the cores.
	CoresBelowShape bool `json:"host_cores_below_shape"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		CPUModel:    "unknown",
		VCSRevision: "unknown",
	}
	h.CoresBelowShape = h.NProc < fleetShape
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	return h
}

// maxRSSMB is the peak resident set of this process in MiB. Worker
// subprocesses are separate processes and are not included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters are the registry's counters by name, summed across labels.
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, s := range obs.TakeSnapshot().Counters {
		c[s.Name] += s.Value
	}
	return c
}

// delta returns after[name] − before[name].
func (after counters) delta(before counters, name string) float64 {
	return after[name] - before[name]
}

// fallbacks counts the events that make a fleet op fail: a fleet run
// degraded in-process, or distribution settings that failed to parse.
func (c counters) fallbacks() float64 {
	return c["rv_dist_fallbacks_total"] + c["rv_settings_fallbacks_total"]
}
