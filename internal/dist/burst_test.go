package dist

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Tests of the burst rule (DESIGN.md §8.2): of a small dispatch, an
// adaptive connection sends as much at once, with one flush, as its
// known capacity allows, while fixed windows and shares above the
// window cap stay bounded by the window. Plus the scheduler's
// long-session bookkeeping and the controller's view of the first
// reply after an idle period.

// holdingWorker is a scripted TCP worker that answers in rounds. It
// holds the job frames it reads unanswered until it holds full of
// them (full > 0), or until the coordinator has sent nothing for quiet
// (full == 0), then answers every held job with its true result and
// starts the next round. With full > 0, a coordinator that goes quiet
// for quiet before sending full jobs fails the test, and the worker
// hangs up so the run ends. When the coordinator closes the
// connection, the channel receives how many jobs each round held: the
// first is the coordinator's opening burst, the largest the most it
// ever had in flight.
func holdingWorker(t *testing.T, l net.Listener, full int, quiet time.Duration) <-chan []int {
	report := make(chan []int, 1)
	go func() {
		var rounds []int
		defer func() { report <- rounds }()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
			t.Error(err)
			return
		}
		jobs, done := make(chan []byte), make(chan struct{})
		defer close(done)
		go func() {
			defer close(jobs)
			br := bufio.NewReader(conn)
			for {
				typ, payload, err := wire.ReadFrame(br)
				if err != nil {
					return
				}
				if typ != wire.FrameJob {
					continue
				}
				select {
				case jobs <- payload:
				case <-done:
					return
				}
			}
		}()
		bw := bufio.NewWriter(conn)
		var round [][]byte
		answer := func() bool {
			rounds = append(rounds, len(round))
			for _, payload := range round {
				seq, body, err := wire.SplitSeq(payload)
				if err != nil {
					t.Error(err)
					return false
				}
				wj, err := wire.DecodeJob(body)
				if err != nil {
					t.Error(err)
					return false
				}
				j, err := materialize(wj)
				if err != nil {
					t.Error(err)
					return false
				}
				res := sim.Run(j.A, j.B, j.Settings)
				if err := wire.WriteFrame(bw, wire.FrameResult, wire.AppendSeq(seq, wire.EncodeResult(res))); err != nil {
					return false
				}
			}
			round = round[:0]
			return bw.Flush() == nil
		}
		timer := time.NewTimer(quiet)
		defer timer.Stop()
		for {
			select {
			case payload, ok := <-jobs:
				if !ok {
					return
				}
				round = append(round, payload)
				if len(round) == full && !answer() {
					return
				}
			case <-timer.C:
				switch {
				case len(round) == 0:
				case full > 0:
					t.Errorf("coordinator sent %d of %d jobs, then nothing for %v", len(round), full, quiet)
					rounds = append(rounds, len(round))
					return
				case !answer():
					return
				}
			}
			timer.Reset(quiet)
		}
	}()
	return report
}

// heldRounds waits for a holding worker's report.
func heldRounds(t *testing.T, report <-chan []int) []int {
	t.Helper()
	select {
	case rounds := <-report:
		if len(rounds) == 0 {
			t.Fatal("scripted worker answered no round")
		}
		return rounds
	case <-time.After(10 * time.Second):
		t.Fatal("scripted worker never saw the coordinator hang up")
		return nil
	}
}

// TestBurstSmallDispatchWhole: on a fresh one-connection adaptive
// session to a host that declared a pool of 12, a 12-task dispatch
// fits under the window cap, so the connection sends all 12 jobs
// before any reply. The worker withholds every reply until it holds
// all 12; a coordinator that waits on its starting window of 4 instead
// stalls it, and the worker gives up.
func TestBurstSmallDispatchWhole(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	ins := drawInstances(6) // 12 distinct instances
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	report := holdingWorker(t, l, len(ins), 5*time.Second)

	got, _, err := Run(aurvJobs(t, ins, set), 1, Config{Hosts: []Host{{Addr: l.Addr().String(), Pool: len(ins)}}, MaxRespawns: -1})
	if err != nil {
		t.Fatalf("run against a worker that answers only a whole dispatch failed: %v", err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(want)) {
		t.Fatal("results differ from in-process serial")
	}
	if n := slices.Max(heldRounds(t, report)); n != len(ins) {
		t.Fatalf("worker held at most %d jobs, want the whole dispatch of %d", n, len(ins))
	}
}

// TestBurstRespectsWindow guards the other side of the rule: a share
// above the adaptive cap stays bounded by the controller's window, and
// fixed windows, synchronous dispatch included, never burst past their
// size. The worker answers only after the coordinator goes quiet, so
// whatever the window allows is on the wire when it counts.
func TestBurstRespectsWindow(t *testing.T) {
	set := testSettings()
	for _, tc := range []struct {
		name  string
		cfg   Config
		tasks int
		limit int
	}{
		{"adaptive cap 2", Config{MaxWindow: 2}, 10, 2},
		{"fixed 4", Config{Window: 4}, 12, 4},
		{"fixed 1", Config{Window: 1}, 12, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer l.Close()
			ins := drawInstances(6)[:tc.tasks]
			want, _ := batch.Run(aurvJobs(t, ins, set), 1)
			report := holdingWorker(t, l, 0, 20*time.Millisecond)

			cfg := tc.cfg
			cfg.Hosts = tcpHosts(l.Addr().String())
			cfg.MaxRespawns = -1
			got, _, err := Run(aurvJobs(t, ins, set), 1, cfg)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatal("results differ from in-process serial")
			}
			n := slices.Max(heldRounds(t, report))
			t.Logf("%d tasks: at most %d jobs in flight (window allows %d)", tc.tasks, n, tc.limit)
			if n > tc.limit {
				t.Fatalf("worker held %d jobs at once, window allows %d", n, tc.limit)
			}
		})
	}
}

// TestBurstStopsAtPoolHint: a host that declared its pool takes an
// opening burst of at most that many jobs of a small dispatch — or the
// window's starting size, if larger — and the rest of its share waits
// in the coordinator's queue, where a faster connection could take it.
// A host without a hint gets no burst: its capacity is unknown.
func TestBurstStopsAtPoolHint(t *testing.T) {
	set := testSettings()
	ins := drawInstances(6) // 12 distinct instances
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)
	for _, tc := range []struct{ pool, first int }{
		{16, len(ins)},
		{8, 8},
		{2, DefaultWindow},
		{0, DefaultWindow},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		report := holdingWorker(t, l, 0, 20*time.Millisecond)
		got, _, err := Run(aurvJobs(t, ins, set), 1, Config{Hosts: []Host{{Addr: l.Addr().String(), Pool: tc.pool}}, MaxRespawns: -1})
		l.Close()
		if err != nil {
			t.Fatalf("pool hint %d: run failed: %v", tc.pool, err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("pool hint %d: results differ from in-process serial", tc.pool)
		}
		rounds := heldRounds(t, report)
		t.Logf("pool hint %d: rounds %v", tc.pool, rounds)
		if rounds[0] != tc.first {
			t.Errorf("pool hint %d: opening burst of %d jobs, want %d", tc.pool, rounds[0], tc.first)
		}
	}
}

// TestBurstAllowance pins the burst rule's table: how many jobs of a
// small dispatch a connection may hold at once, by what the
// coordinator knows of its capacity.
func TestBurstAllowance(t *testing.T) {
	adaptive, fixed := newAdaptiveWindow(Config{}), newAdaptiveWindow(Config{Window: 2})
	for _, tc := range []struct {
		name string
		win  adaptiveWindow
		s    *slot
		d    *dispatch
		want int
	}{
		{"local subprocess, local dispatch", adaptive, &slot{local: true}, &dispatch{clamp: 12, local: true}, 12},
		{"local subprocess beside a host", adaptive, &slot{local: true}, &dispatch{clamp: 12}, DefaultWindow},
		{"host with pool 8", adaptive, &slot{pool: 8}, &dispatch{clamp: 12}, 8},
		{"host with pool 16", adaptive, &slot{pool: 16}, &dispatch{clamp: 12}, 12},
		{"host with pool 2", adaptive, &slot{pool: 2}, &dispatch{clamp: 12}, DefaultWindow},
		{"host without a hint", adaptive, &slot{}, &dispatch{clamp: 12, local: true}, DefaultWindow},
		{"share above the cap", adaptive, &slot{local: true}, &dispatch{clamp: DefaultMaxWindow + 1, local: true}, DefaultWindow},
		{"fixed window", fixed, &slot{local: true}, &dispatch{clamp: 12, local: true}, 2},
	} {
		if got := tc.win.limit(tc.d.clamp, tc.s.burst(tc.d)); got != tc.want {
			t.Errorf("%s: limit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestControllerHidesLatency: a dispatch whose per-connection share
// (24 jobs) exceeds the window cap (8) is not sent whole, so the
// adaptive controller alone paces the connection. Through 25 ms of
// one-way latency it must still finish at least twice as fast as
// synchronous dispatch, with byte-identical results, and never hold
// more than the cap in flight. (TestWindowHidesLatency's adaptive leg
// sends 8 jobs under a cap of 8: the burst rule sends them whole.)
func TestControllerHidesLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps through simulated network latency")
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer wl.Close()
	go ServeListener(wl)
	const maxWindow = 8
	addr := latencyProxy(t, wl.Addr().String(), 25*time.Millisecond)
	ins := drawInstances(12) // 24 distinct instances
	set := testSettings()
	want, _ := batch.Run(aurvJobs(t, ins, set), 1)

	// timed runs the dispatch on a fresh session and reports its wall
	// time and the most jobs in flight the scheduler held. Claims and
	// settles both happen under the fleet mutex, and every in-flight
	// level lasts at least a round trip here, so polling sees the peak.
	timed := func(label string, cfg Config) (time.Duration, int) {
		cfg.Hosts = tcpHosts(addr)
		cfg.MaxRespawns = -1
		f, err := Dial(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer f.Close()
		stop, peak := make(chan struct{}), make(chan int)
		go func() {
			most := 0
			for {
				f.mu.Lock()
				for _, s := range f.slots {
					most = max(most, s.inflightN)
				}
				f.mu.Unlock()
				select {
				case <-stop:
					peak <- most
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}()
		start := time.Now()
		got, _, err := f.Run(aurvJobs(t, ins, set), 1)
		took := time.Since(start)
		close(stop)
		most := <-peak
		if err != nil {
			t.Fatalf("%s run failed: %v", label, err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(want)) {
			t.Fatalf("%s results differ from in-process serial", label)
		}
		return took, most
	}

	sync, _ := timed("window=1", Config{Window: 1})
	adaptive, most := timed("adaptive", Config{MaxWindow: maxWindow})
	t.Logf("window=1: %v, adaptive: %v (%.1fx), at most %d in flight", sync, adaptive, float64(sync)/float64(adaptive), most)
	if most > maxWindow {
		t.Fatalf("adaptive connection held %d jobs in flight, cap %d", most, maxWindow)
	}
	if most == 0 {
		t.Fatal("never saw a job in flight")
	}
	if adaptive*2 > sync {
		t.Fatalf("adaptive dispatch did not hide latency: window=1 took %v, adaptive took %v (want ≥2x)", sync, adaptive)
	}
}

// writeCounter counts the writes that reach the transport.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestBurstSendAllOneWrite: a burst reaches the transport as one write
// (one flush), and carries every frame in claim order.
func TestBurstSendAllOneWrite(t *testing.T) {
	var w writeCounter
	bw := bufio.NewWriter(&w)
	wc := &workerConn{bw: bw, fw: wire.NewFrameWriter(bw)}
	var burst []claim
	for k := 0; k < 8; k++ {
		burst = append(burst, claim{seq: wire.DispatchSeq(3, uint32(k)), typ: wire.FrameJob, payload: bytes.Repeat([]byte{byte(k)}, 100)})
	}
	if err := wc.sendAll(burst); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("a burst of %d frames took %d writes, want 1", len(burst), w.writes)
	}
	for k, cl := range burst {
		typ, payload, err := wire.ReadFrame(&w.Buffer)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		seq, body, err := wire.SplitSeq(payload)
		if err != nil || typ != cl.typ || seq != cl.seq || !bytes.Equal(body, cl.payload) {
			t.Fatalf("frame %d = (type %d, seq %#x, %d bytes, %v), want (type %d, seq %#x, %d bytes)",
				k, typ, seq, len(body), err, cl.typ, cl.seq, len(cl.payload))
		}
	}
	if w.Len() != 0 {
		t.Fatalf("%d bytes after the last frame", w.Len())
	}
}

// TestPerDispEmptyAfterDispatches: the per-connection, per-dispatch
// in-flight counts drain with their dispatches, so a long session's
// scheduler state does not grow with the number of dispatches it ran.
func TestPerDispEmptyAfterDispatches(t *testing.T) {
	f, err := Dial(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ins := drawInstances(2)
	set := testSettings()
	for i := 0; i < 200; i++ {
		if _, _, err := f.Run(aurvJobs(t, ins, set), 1); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.slots {
		if len(s.perDisp) != 0 {
			t.Errorf("slot %s keeps %d per-dispatch entries after 200 dispatches", s.name, len(s.perDisp))
		}
	}
}

// TestFirstReplyAfterIdleObserved: on an adaptive window every reply
// feeds the latency histogram and the RTT estimate, the first reply of
// a dispatch after an idle period included. Single-job dispatches
// consist of nothing else. Those first replies measure no service gap,
// so single-job dispatches leave the gap estimate unset.
func TestFirstReplyAfterIdleObserved(t *testing.T) {
	f, err := Dial(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ins := drawInstances(4) // 8 distinct instances
	set := testSettings()
	for _, tc := range []struct {
		name string
		jobs int
	}{{"single-job", 1}, {"eight-job", 8}} {
		before := hJobLatency.Count()
		for i := 0; i < 20; i++ {
			if _, _, err := f.Run(aurvJobs(t, ins[:tc.jobs], set), 1); err != nil {
				t.Fatalf("%s dispatch %d: %v", tc.name, i, err)
			}
		}
		if got, want := hJobLatency.Count()-before, uint64(20*tc.jobs); got != want {
			t.Errorf("20 %s dispatches added %d latency samples, want %d", tc.name, got, want)
		}
		f.mu.Lock()
		rtt, gap := f.slots[0].wc.win.rtt, f.slots[0].wc.win.gap
		f.mu.Unlock()
		if rtt <= 0 {
			t.Errorf("after 20 %s dispatches the RTT estimate is %v, want it armed", tc.name, rtt)
		}
		if tc.jobs == 1 && gap != 0 {
			t.Errorf("after 20 single-job dispatches the gap estimate is %v, want none: idle time or a round trip went in as a service gap", gap)
		}
	}
}
