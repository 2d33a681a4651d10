package prog

// Tape: one pure instruction stream, generated once and read by many.
//
// The rendezvous agents are anonymous and run the same deterministic
// algorithm, so a simulation pulls the very same instruction stream
// twice, and a batch pulls it twice per instance. When the stream is a
// pure function of nothing the caller varies (Algorithm 1 under a
// canonical schedule), a Tape generates it once per process: an
// append-only array of Steps, each instruction stored with its move's
// unit direction already resolved, that any number of cursors read.
//
// Readers take the published prefix without a lock: the steps below
// the published length are never written again, and the length is
// published with an atomic store after they are written. A reader that
// catches up with the tape extends it by one chunk under the mutex,
// pulling from the tape's one master cursor. The tape stops growing at
// tapeCap steps; a reader that goes past the cap continues on a
// private generator of its own, fast-forwarded by the cap, so no run
// is ever limited by the tape and memory stays bounded.

import (
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Step is one tape entry: an instruction and, for a move, its unit
// direction geom.Polar(Theta) in the executing agent's local system
// (zero for waits).
type Step struct {
	Instr
	Dir geom.Vec2
}

const (
	// tapeChunk is the number of steps one extension appends: the
	// storage block size.
	tapeChunk = 1 << 10
	// tapeCap bounds a tape at 16,384 steps (≈640 KB of Steps). Per
	// agent, the meet runs of a batch take ≤ 40 segments, a 20k-segment
	// miss run 10,000 instructions, and unfiltered T2-class draws 13 at
	// the median and 2,629 at p99; only the rare longer runs read past
	// it.
	tapeCap = 16 * tapeChunk
)

// Tape is an append-only memo of one pure, re-iterable instruction
// stream (see the file comment). It is safe for concurrent use.
type Tape struct {
	src func() Cursor // a fresh generator of the stream

	n      atomic.Int64                          // published steps
	blocks [tapeCap / tapeChunk]*[tapeChunk]Step // written before n publishes them

	mu     sync.Mutex
	master Cursor // extends the tape; created on first use
	done   bool   // the tape is full or the stream has ended
}

// NewTape returns an empty tape over the program p, which must be pure
// (every iteration yields the same instructions) and free of side
// effects: the tape runs it once for the prefix it stores, and again
// privately for every reader that goes past the cap.
func NewTape(p Program) *Tape { return &Tape{src: CursorFactory(p)} }

// Program returns the tape as a re-iterable program: every iteration
// reads from the first step, through a *TapeCursor that NewCursor
// returns as is.
func (t *Tape) Program() Program {
	return CursorProgram(func() Cursor { return &TapeCursor{t: t} })
}

// grow appends one chunk when step i is not yet published, unless the
// tape is full or the stream has ended.
func (t *Tape) grow(i int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n.Load()
	if i < n || t.done {
		return
	}
	if t.master == nil {
		t.master = t.src()
	}
	b := new([tapeChunk]Step)
	k := 0
	for ; k < tapeChunk; k++ {
		ins, ok := t.master.Next()
		if !ok {
			break
		}
		b[k].Instr = ins
		if ins.Op == OpMove {
			b[k].Dir = geom.Polar(ins.Theta)
		}
	}
	t.blocks[n/tapeChunk] = b
	if k < tapeChunk || n+tapeChunk == tapeCap {
		t.master.Close()
		t.master, t.done = nil, true
	}
	t.n.Store(n + int64(k))
}

// TapeCursor reads a tape. Like every Cursor it is single-use and not
// safe for concurrent use; any number of TapeCursors may read one tape
// concurrently.
type TapeCursor struct {
	t   *Tape
	i   int64  // tape index of the next step Steps returns
	buf []Step // steps handed to Next but not yet returned
	gen Cursor // the private generator past the cap
}

// Steps returns the tape steps from the cursor's position to the end
// of the published prefix (at most one chunk), extending the tape when
// the cursor has caught up with it, and moves past them. The slice
// aliases the shared tape: callers read it and never write it. An empty
// result means the tape holds nothing further for this cursor — the
// stream ended, or the cursor reached the cap — and Rest then serves
// what follows.
func (c *TapeCursor) Steps() []Step {
	n := c.t.n.Load()
	if c.i >= n {
		if n == tapeCap {
			return nil
		}
		c.t.grow(c.i)
		if n = c.t.n.Load(); c.i >= n {
			return nil
		}
	}
	k := c.i / tapeChunk
	lo, hi := c.i-k*tapeChunk, min(n-k*tapeChunk, tapeChunk)
	c.i += hi - lo
	return c.t.blocks[k][lo:hi:hi]
}

// Rest returns the cursor that continues the stream where Steps
// stopped: a private generator fast-forwarded by the cap when the
// cursor reached it, or an exhausted cursor when the stream ended
// within the tape. Call it only after Steps returned empty. The
// returned cursor belongs to c: Close releases it.
func (c *TapeCursor) Rest() Cursor {
	if c.gen == nil {
		if c.i < tapeCap {
			c.gen = emptyCursor{}
		} else {
			c.gen = c.t.src()
			for k := 0; k < tapeCap; k++ {
				c.gen.Next()
			}
		}
	}
	return c.gen
}

// Next implements Cursor.
func (c *TapeCursor) Next() (Instr, bool) {
	if len(c.buf) > 0 {
		ins := c.buf[0].Instr
		c.buf = c.buf[1:]
		return ins, true
	}
	if c.gen != nil {
		return c.gen.Next()
	}
	if c.buf = c.Steps(); len(c.buf) > 0 {
		return c.Next()
	}
	return c.Rest().Next()
}

// Close implements Cursor; it is idempotent.
func (c *TapeCursor) Close() {
	if c.gen != nil {
		c.gen.Close()
	}
}
