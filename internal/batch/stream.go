package batch

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// Stream is the ordered-delivery view of a running batch: results are
// released on Results() in input order, each as soon as the whole
// prefix before it has completed. Consumers therefore see exactly the
// sequence a serial loop would produce — byte-identical, in the same
// order — but they see the early entries while the rest of the batch is
// still running, which is what lets a sweep print its first CSV rows
// long before the slowest point finishes.
//
// The channel is buffered to the full batch size, so producers never
// block on a slow (or absent) consumer and an abandoned Stream leaks no
// goroutines.
type Stream struct {
	ch      chan sim.Result
	fin     chan struct{} // closed after stats/err are final
	mu      sync.Mutex
	results []sim.Result
	done    []bool
	front   int // next index to release
	stats   Stats
	err     error
}

// Results returns the ordered delivery channel. It is closed when the
// batch has drained — or, for distributed runs, when the engine failed;
// distinguish with Err.
func (s *Stream) Results() <-chan sim.Result { return s.ch }

// Stats blocks until the batch has drained and returns the aggregate
// accounting (identical to what Run would have returned).
func (s *Stream) Stats() Stats {
	<-s.fin
	return s.stats
}

// Err blocks until the batch has drained and reports how it ended; nil
// means every result was delivered.
func (s *Stream) Err() error {
	<-s.fin
	return s.err
}

// Producer is the filling half of a Stream, handed to the engine that
// executes the jobs. It is safe for concurrent use by many workers.
type Producer struct{ s *Stream }

// NewStream creates a Stream over n result slots plus its Producer.
// Exported for the engines that fill streams (this package's RunStream
// and the distributed coordinator); consumers only ever see the Stream.
func NewStream(n int) (*Stream, *Producer) {
	s := &Stream{
		ch:      make(chan sim.Result, n),
		fin:     make(chan struct{}),
		results: make([]sim.Result, n),
		done:    make([]bool, n),
	}
	return s, &Producer{s: s}
}

// Put records the completed result of slot i and releases every newly
// completed prefix entry to the channel, in order.
func (p *Producer) Put(i int, r sim.Result) {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[i] {
		return
	}
	s.results[i] = r
	s.done[i] = true
	for s.front < len(s.done) && s.done[s.front] {
		s.ch <- s.results[s.front] // buffered to len(done): never blocks
		s.front++
	}
}

// Results exposes the producer-side result slice (valid after every
// slot is done); engines use it to fold Stats without recollecting.
func (p *Producer) Results() []sim.Result { return p.s.results }

// Close finalizes the stream: err non-nil marks an engine failure (some
// slots undelivered), executed/workers feed the Stats fold. It must be
// called exactly once, after the last Put. Only a completed stream is
// recorded on the flight recorder: a failed one is not a completed
// batch, and a caller that splices the rest in-process (Resume)
// records the whole batch once.
func (p *Producer) Close(executed, workers int, err error) {
	s := p.s
	s.mu.Lock()
	s.stats = fold(s.results, executed, workers)
	if err == nil {
		record(s.stats)
	}
	s.err = err
	s.mu.Unlock()
	close(s.ch)
	close(s.fin)
}

// RunStream executes the jobs exactly like Run — same pool, same
// claim-counter scheduling, same memoization, byte-identical results —
// but delivers them through a Stream as the completed prefix grows
// instead of all at once. Duplicate (memoized) jobs are released the
// moment their canonical job completes, traces deep-copied as in Run.
func RunStream(jobs []Job, workers int) *Stream { return Resume(jobs, nil, workers) }

// Resume is RunStream for a batch whose ordered prefix another engine
// already computed (a distributed run that delivered results
// 0..len(prefix)-1 and then failed): the prefix is released as is,
// only the rest of the jobs execute, and a suffix job memoized onto a
// prefix job shares that result. The stream's results and Stats —
// recorded once, for the whole batch — are exactly RunStream's.
func Resume(jobs []Job, prefix []sim.Result, workers int) *Stream {
	s, p := NewStream(len(jobs))
	go func() {
		canon, uniq := Dedup(len(jobs), func(i int) any { return jobs[i].Key })
		dups := dupsOf(canon)
		for i, r := range prefix {
			p.Put(i, r)
			for _, j := range dups[i] {
				if j >= len(prefix) {
					p.Put(j, r.CloneTraces())
				}
			}
		}
		run := uniq[sort.SearchInts(uniq, len(prefix)):]
		Do(len(run), Workers(workers, len(run)), func(k int) {
			i := run[k]
			res := sim.Run(jobs[i].A, jobs[i].B, jobs[i].Settings)
			p.Put(i, res)
			for _, j := range dups[i] {
				p.Put(j, res.CloneTraces())
			}
		})
		p.Close(len(uniq), Workers(workers, len(uniq)), nil)
	}()
	return s
}

// DupsOf inverts a Dedup canon slice: for every canonical index, the
// indices of the duplicate slots that share its result (always larger
// than the canonical index, since Dedup scans in input order).
func DupsOf(canon []int) map[int][]int { return dupsOf(canon) }

func dupsOf(canon []int) map[int][]int {
	var dups map[int][]int
	for i, c := range canon {
		if c != i {
			if dups == nil {
				dups = make(map[int][]int)
			}
			dups[c] = append(dups[c], i)
		}
	}
	return dups
}
