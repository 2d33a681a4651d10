package dist

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// partialWorker is a scripted TCP worker: it hellos, answers the first
// k job frames it reads with their true results, then ends its half of
// the stream — a fleet lost mid-batch after delivering a prefix. It
// drains the coordinator's frames until the coordinator hangs up, so
// closing never resets the connection under the answers it sent.
func partialWorker(t *testing.T, l net.Listener, k int) {
	conn, err := l.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(0)); err != nil {
		t.Error(err)
		return
	}
	br := bufio.NewReader(conn)
	for answered := 0; answered < k; {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Errorf("scripted worker: %v", err)
			return
		}
		if typ != wire.FrameJob {
			continue
		}
		seq, body, err := wire.SplitSeq(payload)
		if err != nil {
			t.Error(err)
			return
		}
		wj, err := wire.DecodeJob(body)
		if err != nil {
			t.Error(err)
			return
		}
		j, err := materialize(wj)
		if err != nil {
			t.Error(err)
			return
		}
		res := sim.Run(j.A, j.B, j.Settings)
		if err := wire.WriteFrame(conn, wire.FrameResult, wire.AppendSeq(seq, wire.EncodeResult(res))); err != nil {
			t.Error(err)
			return
		}
		answered++
	}
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, br)
}

// batchCounters reads the batch layer's job and execution counters.
func batchCounters() (jobs, executed float64) {
	for _, c := range obs.TakeSnapshot().Counters {
		switch c.Name {
		case "rv_batch_jobs_total":
			jobs = c.Value
		case "rv_batch_executed_total":
			executed = c.Value
		}
	}
	return jobs, executed
}

// TestFallbackSpliceCountsBatchOnce pins the accounting of a spliced
// batch: when the only worker answers 2 of 6 jobs and goes away, both
// fallback entry points finish the batch in-process and the flight
// recorder counts it once — by the same Jobs/Executed a clean run
// records — instead of once per engine that touched it. The last job
// duplicates the first, so the splice must also share a result across
// the prefix/suffix seam.
func TestFallbackSpliceCountsBatchOnce(t *testing.T) {
	ins := drawInstances(3)[:5]
	ins = append(ins, ins[0])
	set := testSettings()
	j0, e0 := batchCounters()
	want, wantStats := batch.Run(aurvJobs(t, ins, set), 1)
	j1, e1 := batchCounters()
	if j1-j0 != 6 || e1-e0 != 5 {
		t.Fatalf("clean run counted jobs=%v executed=%v, want 6 and 5", j1-j0, e1-e0)
	}

	entries := []struct {
		name string
		run  func(cfg Config) []sim.Result
	}{
		{"RunOrFallback", func(cfg Config) []sim.Result {
			got, st := RunOrFallback(aurvJobs(t, ins, set), 1, cfg)
			if st != wantStats {
				t.Errorf("spliced Stats = %+v, want the clean run's %+v", st, wantStats)
			}
			return got
		}},
		{"StreamOrFallback", func(cfg Config) []sim.Result {
			var got []sim.Result
			for r := range StreamOrFallback(aurvJobs(t, ins, set), 1, cfg) {
				got = append(got, r)
			}
			return got
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			defer l.Close()
			go partialWorker(t, l, 2)

			var log bytes.Buffer
			j0, e0 := batchCounters()
			got := e.run(Config{Hosts: tcpHosts(l.Addr().String()), MaxRespawns: -1, Stderr: &log})
			j1, e1 := batchCounters()
			if !bytes.Equal(encodeAll(got), encodeAll(want)) {
				t.Fatal("spliced results differ from in-process serial")
			}
			if !strings.Contains(log.String(), "finishing in-process") || !strings.Contains(log.String(), "delivered=2") {
				t.Fatalf("want a splice after a 2-result prefix, coordinator log:\n%s", log.String())
			}
			if j1-j0 != 6 || e1-e0 != 5 {
				t.Errorf("spliced batch counted jobs=%v executed=%v, want 6 and 5 (once, as a clean run)", j1-j0, e1-e0)
			}
		})
	}
}
