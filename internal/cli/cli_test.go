package cli

import (
	"bytes"
	"errors"
	"flag"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exps"
	"repro/internal/obs"
)

// parse declares the coordinator flags on a fresh flag set and parses
// args into it.
func parse(t *testing.T, args ...string) *Fleet {
	t.Helper()
	fs := flag.NewFlagSet("rvtest", flag.ContinueOnError)
	fl := FleetFlags(fs, "rvtest")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return fl
}

func TestFleetFlagsLandInConfig(t *testing.T) {
	fl := parse(t, "-worker", "3", "-hosts", "a:1, b:2*4", "-window", "5", "-max-window", "9",
		"-stall", "2s", "-max-requeues", "4", "-compress", "-log-level", "warn")
	if err := fl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	want := dist.Config{
		Procs:          3,
		Hosts:          []dist.Host{{Addr: "a:1"}, {Addr: "b:2", Pool: 4}},
		Window:         5,
		MaxWindow:      9,
		StallTimeout:   2 * time.Second,
		MaxJobRequeues: 4,
		Compress:       true,
	}
	if !reflect.DeepEqual(fl.cfg, want) {
		t.Errorf("config = %+v, want %+v", fl.cfg, want)
	}
	if got := obs.LogLevel.Level(); got != slog.LevelWarn {
		t.Errorf("log level = %v, want warn", got)
	}
	if d := parse(t); d.cfg.Enabled() || d.logLevel != "info" || d.metrics != "" || d.pprof {
		t.Errorf("defaults name a fleet or change obs: %+v", d)
	}
}

func TestHostsFileWithCommentsParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(path, []byte("# fleet roster\nh1:9101\n\n# big box\nh2:9101*8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fl := parse(t, "-hosts-file", path)
	if err := fl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	want := []dist.Host{{Addr: "h1:9101"}, {Addr: "h2:9101", Pool: 8}}
	if !reflect.DeepEqual(fl.cfg.Hosts, want) {
		t.Errorf("hosts = %+v, want %+v", fl.cfg.Hosts, want)
	}
}

// TestUsageErrors pins which flag mistakes exit 2.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"hosts and hosts-file", []string{"-hosts", "a:1", "-hosts-file", "f"}, "mutually exclusive"},
		{"malformed pool hint", []string{"-hosts", "a:1*0"}, "pool hint"},
		{"malformed entry", []string{"-hosts", "a:1,*2"}, "malformed host entry"},
		{"missing hosts file", []string{"-hosts-file", filepath.Join(t.TempDir(), "none")}, "no such file"},
		{"bad log level", []string{"-log-level", "loud"}, "unknown log level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, tc.args...).Start()
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("error %q does not mention %q", err, tc.msg)
			}
			if !strings.HasPrefix(err.Error(), "rvtest: ") {
				t.Errorf("error %q does not name the command", err)
			}
			if c := exitCode(err); c != 2 {
				t.Errorf("exit code %d, want 2", c)
			}
		})
	}
	// rvworker's observability subset rejects a bad level the same way.
	fs := flag.NewFlagSet("rvworker", flag.ContinueOnError)
	o := ObsFlags(fs, "rvworker")
	if err := fs.Parse([]string{"-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); exitCode(err) != 2 {
		t.Errorf("ObsFlags bad level: err %v, want a usage error", err)
	}
}

// fakeSession records what Open does to a session.
type fakeSession struct {
	calls    []string
	watchErr error
}

func (s *fakeSession) WatchHosts(path string, _ time.Duration) (func(), error) {
	s.calls = append(s.calls, "watch "+path)
	if s.watchErr != nil {
		return nil, s.watchErr
	}
	return func() { s.calls = append(s.calls, "stop") }, nil
}

func (s *fakeSession) Close() error {
	s.calls = append(s.calls, "close")
	return nil
}

func TestOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(path, []byte("h1:9101\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dials := 0
	dial := func(dist.Config) (*fakeSession, error) { dials++; return nil, nil }
	s, done, err := Open(parse(t), dial)
	if s != nil || err != nil || dials != 0 {
		t.Fatalf("no fleet named: session %v, err %v, %d dials", s, err, dials)
	}
	done()
	// Open runs Start: a usage error ends it before any dial.
	if _, _, err := Open(parse(t, "-hosts", "a:1*0"), dial); exitCode(err) != 2 || dials != 0 {
		t.Fatalf("malformed hosts: err %v, %d dials, want a usage error and no dial", err, dials)
	}

	fake := new(fakeSession)
	s, done, err = Open(parse(t, "-hosts-file", path), func(cfg dist.Config) (*fakeSession, error) {
		if len(cfg.Hosts) != 1 || cfg.Hosts[0].Addr != "h1:9101" {
			t.Errorf("dialed %+v, want the hosts-file roster", cfg.Hosts)
		}
		return fake, nil
	})
	if s != fake || err != nil {
		t.Fatalf("hosts-file fleet: session %v, err %v", s, err)
	}
	done()
	if want := []string{"watch " + path, "stop", "close"}; !reflect.DeepEqual(fake.calls, want) {
		t.Errorf("session calls %q, want %q", fake.calls, want)
	}

	// A watcher that cannot start is a runtime failure (exit 1), and the
	// session it was meant for is closed.
	fake = &fakeSession{watchErr: errors.New("watch refused")}
	s, _, err = Open(parse(t, "-hosts-file", path), func(dist.Config) (*fakeSession, error) { return fake, nil })
	if s != nil || err == nil || exitCode(err) != 1 {
		t.Fatalf("failed watch: session %v, err %v (exit %d), want a runtime failure", s, err, exitCode(err))
	}
	if want := []string{"watch " + path, "close"}; !reflect.DeepEqual(fake.calls, want) {
		t.Errorf("session calls %q, want %q", fake.calls, want)
	}
}

// TestMetricsBindFailureIsRuntime: a -metrics address that cannot be
// bound fails the command with exit status 1, not 2.
func TestMetricsBindFailureIsRuntime(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	err = parse(t, "-metrics", l.Addr().String(), "-pprof").Start()
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("metrics on a taken port: err %v (exit %d), want a runtime failure", err, exitCode(err))
	}
}

// TestUnreachableFleetDialsOnce pins the fallback of a fleet that
// cannot be dialed: Open logs it once and hands the tables no fleet,
// so T3 and T5 — the tables with wire-formed work — run in-process
// without dialing again, byte-identical to a run that named no fleet.
func TestUnreachableFleetDialsOnce(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	var conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			conn.Close() // a peer that is not a worker
		}
	}()

	// Open installs the process logger on os.Stderr: capture it there.
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(orig *os.File, lg *slog.Logger) { os.Stderr = orig; slog.SetDefault(lg) }(os.Stderr, slog.Default())
	os.Stderr = stderr
	before := fallbacks()
	f, done, err := Open(parse(t, "-hosts", l.Addr().String()), dist.Dial)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer done()
	if f != nil {
		t.Fatal("Open returned a session for a fleet that never said hello")
	}
	log, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	// The e2e checks grep for each phrase, so an unreachable fleet
	// cannot pass for a distributed run.
	for _, phrase := range []string{"running in-process", "batch failed", "falling back"} {
		if !bytes.Contains(log, []byte(phrase)) {
			t.Errorf("fallback warning lacks %q:\n%s", phrase, log)
		}
	}
	if d := fallbacks() - before; d != 1 {
		t.Errorf("rv_dist_fallbacks_total advanced by %v, want 1", d)
	}

	b := exps.Budgets{MeetSegments: 120_000_000, MissSegments: 1_000_000, Workers: 2}
	wantT3, wantT5 := exps.T3(3, 2, b).String(), exps.T5(200_000, 5, b).String()
	b.Fleet = f
	if exps.T3(3, 2, b).String() != wantT3 || exps.T5(200_000, 5, b).String() != wantT5 {
		t.Fatal("tables after an unreachable fleet differ from in-process tables")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections to the unreachable fleet, want exactly 1 (the initial dial)", n)
	}
	if d := fallbacks() - before; d != 1 {
		t.Errorf("rv_dist_fallbacks_total advanced by %v after the tables, want 1", d)
	}
}

// fallbacks reads the count of distributed runs degraded to in-process.
func fallbacks() float64 {
	for _, c := range obs.TakeSnapshot().Counters {
		if c.Name == "rv_dist_fallbacks_total" {
			return c.Value
		}
	}
	return 0
}
