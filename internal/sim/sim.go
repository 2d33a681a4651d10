// Package sim is the exact continuous-time simulator for two mobile
// agents executing move/wait programs in the plane.
//
// The simulator is event-driven: each agent's lazy program is converted
// into a stream of absolute-time segments (constant-velocity intervals),
// the two streams are merged by time, and on every overlap interval the
// first time the inter-agent gap reaches the sight radius is computed
// analytically (a quadratic root — see geom.FirstWithin). A wait of
// 2^60 time units therefore costs exactly one event, which is what makes
// the paper's astronomically scheduled algorithms simulable at all.
//
// Instructions are pulled through the prog cursor engine: cursor-backed
// programs (every prog combinator) are drained by direct calls, and only
// opaque hand-written push closures fall back to an iter.Pull coroutine.
// A tape-backed program (prog.Tape — Algorithm 1 under a canonical
// schedule) is read in chunks of steps whose move directions the tape
// resolved once for the whole process, so the runner turns them into
// velocities with its frame R_φ·S_χ (computed once per run) and no
// trigonometry. Moves a generator serves — past the tape's cap, or of
// any other program — resolve their direction through a small memo of
// geom.Polar keyed by the angle's bits, which runs recycle. Both paths
// memoize pure functions, so every Result is bit-identical to resolving
// each move from scratch.
//
// Consecutive wait instructions are fused into a single segment (wait
// coalescing), so a run of padding and scheduling waits costs one event
// and one Segments unit instead of many; Settings.NoWaitCoalesce
// restores the one-segment-per-instruction accounting.
//
// Absolute time is accumulated in double-double precision (internal/dd),
// so sight events remain resolvable long after a float64 clock would have
// lost sub-unit resolution.
//
// Rendezvous semantics follow the paper: agents stop forever as soon as
// they see each other (gap ≤ r). The Section 5 extension with distinct
// radii r₁ ≥ r₂ is supported: the far-sighted agent freezes first, the
// other keeps executing until the gap reaches its own radius.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dd"
	"repro/internal/geom"
	"repro/internal/phys"
	"repro/internal/prog"
)

// AgentSpec describes one agent: its physical attributes, the program it
// executes, and its sight radius.
type AgentSpec struct {
	Attrs  phys.Attributes
	Prog   prog.Program
	Radius float64
}

// Settings bound a simulation run.
type Settings struct {
	// MaxTime aborts the run when the absolute clock passes it.
	MaxTime float64
	// MaxSegments aborts the run after this many program segments have
	// been consumed across both agents.
	MaxSegments int
	// SightSlack is the relative tolerance added to each radius when
	// detecting sight: the effective radius is r·(1+SightSlack)+1e-12.
	// Boundary instances of the paper attain gap == r exactly in real
	// arithmetic; the slack absorbs float64 rounding. Default 1e-9.
	SightSlack float64
	// TraceCap, when positive, records up to this many trajectory points
	// per agent (decimated by stride doubling when exceeded).
	TraceCap int
	// Parallelism is the worker count used by batch execution
	// (rendezvous.SimulateBatch and internal/batch); a single Run ignores
	// it. 0 or negative selects GOMAXPROCS. The batch engine guarantees
	// results are identical for every value — scheduling changes only
	// wall-clock time, never an outcome.
	Parallelism int
	// NoBatchMemoize disables batch-level memoization in
	// rendezvous.SimulateBatch (duplicate instances sharing one pure
	// result). Set it when the Algorithm's Program factory wires up
	// per-job observable side effects (e.g. a progress observer per
	// job) that must fire for every duplicate. A single Run ignores it.
	NoBatchMemoize bool
	// NoWaitCoalesce disables the fusing of consecutive wait
	// instructions into a single segment. Coalescing never changes the
	// trajectories — a fused wait occupies exactly the local time of its
	// parts — but it does change Segments accounting (a fused run counts
	// once) and can merge event intervals, which may move float64
	// rounding by ulps on runs whose other agent is moving through the
	// fused span. Set it for instruction-exact differential comparisons.
	NoWaitCoalesce bool
	// Hosts, when non-empty, distributes batch execution over the
	// worker processes listening at these comma-separated TCP
	// endpoints (see internal/dist and cmd/rvworker). Like Parallelism
	// it is a batch-level knob that a single Run ignores, and like
	// every scheduling knob it cannot change a result — a distributed
	// batch is byte-identical to an in-process serial one.
	Hosts string
	// WorkerProcs, when positive, spawns this many local worker
	// subprocesses for batch execution (frames over stdio pipes).
	// Combines with Hosts; a single Run ignores it.
	WorkerProcs int
	// WorkerCmd overrides the command line used to spawn local worker
	// subprocesses (whitespace-split). Empty selects the current
	// executable re-executed in worker mode — single-binary deploys for
	// any main that calls dist.MaybeServeStdio early. A single Run
	// ignores it.
	WorkerCmd string
	// Window is the number of jobs a distributed coordinator keeps in
	// flight per worker connection (pipelined dispatch — see
	// internal/dist): deeper windows hide network latency and keep a
	// worker's in-process pool fed. A positive value fixes the window
	// there; 1 restores strictly synchronous request/response dispatch.
	// 0 selects adaptive windows: each connection starts at the default
	// (currently 4) and grows or shrinks with its observed reply RTT
	// and service rate, bounded by MaxWindow. Like every scheduling
	// knob it cannot change a result, and both a single Run and an
	// in-process batch ignore it.
	Window int
	// MaxWindow bounds how far an adaptive window (Window == 0) may
	// grow per connection. 0 selects the default (currently 32);
	// negative disables adaptation, pinning every connection at the
	// default window. Ignored when Window is positive. Pure scheduling:
	// no value can change a result.
	MaxWindow int
	// StallTimeout is the distributed coordinator's liveness deadline:
	// a worker connection with jobs in flight that produces no frame —
	// not even a heartbeat echo — for max(StallTimeout, a multiple of
	// the observed RTT) is declared hung, its window requeued to the
	// survivors. 0 selects the default (currently 30s); negative
	// disables stall detection. Failure handling is pure scheduling: a
	// requeued job recomputes the identical pure result elsewhere, so
	// no value can change a byte of output. A single Run and an
	// in-process batch ignore it.
	StallTimeout time.Duration
	// MaxJobRequeues is the distributed coordinator's poison-job
	// quarantine threshold: a job whose dispatch has been requeued by
	// the deaths or stalls of this many distinct fleet slots is
	// quarantined — surfaced as a deterministic per-job error — instead
	// of being retried into every remaining worker's respawn budget.
	// 0 selects the default (currently 2); negative disables the
	// quarantine. A single Run and an in-process batch ignore it.
	MaxJobRequeues int
	// Compress asks the distributed coordinator to negotiate flate
	// frame compression with every worker that advertises the
	// capability (wire v6), shrinking large frames — trace-carrying
	// results above all — on bandwidth-starved links. Transport only:
	// payloads decode bit-exactly, so no value can change a byte of
	// output. A single Run and an in-process batch ignore it.
	Compress bool
}

// DefaultSettings returns permissive bounds suitable for tests:
// MaxTime 1e18, 50M segments, 1e-9 slack, no trace.
func DefaultSettings() Settings {
	return Settings{MaxTime: 1e18, MaxSegments: 50_000_000, SightSlack: 1e-9}
}

// StopReason tells why a run ended.
type StopReason int

const (
	// ReasonMet: rendezvous achieved.
	ReasonMet StopReason = iota
	// ReasonMaxTime: the absolute clock exceeded Settings.MaxTime.
	ReasonMaxTime
	// ReasonMaxSegments: the segment budget was exhausted.
	ReasonMaxSegments
	// ReasonProgramsEnded: both programs terminated (or froze) without
	// rendezvous; the gap can never change again.
	ReasonProgramsEnded
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case ReasonMet:
		return "met"
	case ReasonMaxTime:
		return "max-time"
	case ReasonMaxSegments:
		return "max-segments"
	case ReasonProgramsEnded:
		return "programs-ended"
	}
	return "unknown"
}

// TracePoint is one recorded trajectory sample.
type TracePoint struct {
	T   float64
	Pos geom.Vec2
}

// Result summarizes a run.
type Result struct {
	Met        bool
	Reason     StopReason
	MeetTime   dd.T      // absolute meeting time (valid when Met)
	MinGap     float64   // minimum gap ever observed
	MinGapTime dd.T      // when the minimum occurred
	EndA, EndB geom.Vec2 // final positions
	Segments   int       // total program segments consumed
	EndTime    dd.T      // absolute time when the run stopped
	TraceA     []TracePoint
	TraceB     []TracePoint
}

// CloneTraces returns the result with freshly copied trace slices, so
// the copy can be handed to a caller that may rescale trace points in
// place without corrupting the original (batch memoization shares one
// computed result across duplicate jobs this way).
func (r Result) CloneTraces() Result {
	if r.TraceA != nil {
		r.TraceA = append([]TracePoint(nil), r.TraceA...)
	}
	if r.TraceB != nil {
		r.TraceB = append([]TracePoint(nil), r.TraceB...)
	}
	return r
}

// String renders a one-line summary.
func (r Result) String() string {
	if r.Met {
		return fmt.Sprintf("met at t=%.6g (gap min %.6g, %d segments)",
			r.MeetTime.Float64(), r.MinGap, r.Segments)
	}
	return fmt.Sprintf("no meeting (%v): min gap %.6g at t=%.6g after %d segments",
		r.Reason, r.MinGap, r.MinGapTime.Float64(), r.Segments)
}

// waitFuseLimit caps how many consecutive wait instructions a single
// segment may absorb, bounding the work per loadSegment call on
// pathological all-wait programs when MaxTime is unbounded.
const waitFuseLimit = 4096

// runner is the per-agent execution state.
type runner struct {
	attrs  phys.Attributes
	frame  geom.Mat2        // attrs.Frame(): the local→absolute rotation/reflection
	cur    prog.Cursor      // instruction source; past a tape's cap, the tape's private generator
	tape   *prog.TapeCursor // the program's cursor while it is a tape with steps left, else nil
	steps  []prog.Step      // tape steps fetched and not yet taken
	memo   *dirMemo         // directions of generator-served moves, taken from dirMemos on first use
	radius float64          // effective sight radius

	pos     geom.Vec2 // position at segStart
	vel     geom.Vec2 // velocity during the current segment
	segEnd  dd.T      // absolute end of the current segment
	local   dd.T      // local time consumed so far (for exact end times)
	frozen  bool      // saw the other agent (or program ended): never moves again
	ended   bool      // no further segments will load
	srcDone bool      // the instruction source is exhausted

	pending    prog.Instr // look-ahead instruction buffered by wait coalescing
	pendingDir *geom.Vec2 // its tape direction, nil when a generator served it
	hasPending bool
	coalesce   bool
	maxTime    dd.T // fusing horizon: waits beyond it cannot matter

	trace   []TracePoint
	stride  int
	skipped int
	cap     int
}

// init readies r to execute the agent's program from its wake-up.
func (r *runner) init(spec AgentSpec, slack float64, traceCap int, maxTime dd.T, coalesce bool) {
	cur := prog.NewCursor(spec.Prog)
	tape, _ := cur.(*prog.TapeCursor)
	*r = runner{
		attrs:    spec.Attrs,
		frame:    spec.Attrs.Frame(),
		cur:      cur,
		tape:     tape,
		radius:   spec.Radius*(1+slack) + 1e-12,
		pos:      spec.Attrs.Origin,
		segEnd:   dd.FromFloat(spec.Attrs.Wake),
		coalesce: coalesce,
		maxTime:  maxTime,
		stride:   1,
		cap:      traceCap,
	}
	r.record(0)
}

// stop releases the runner's instruction source and direction memo
// (idempotent).
func (r *runner) stop() {
	r.cur.Close()
	if r.memo != nil {
		dirMemos.Put(r.memo)
		r.memo = nil
	}
}

// take returns the next program instruction, honoring the look-ahead
// buffer filled by wait coalescing. dir is the move direction the tape
// stored for it, or nil when a generator served it.
func (r *runner) take() (ins prog.Instr, dir *geom.Vec2, ok bool) {
	if r.hasPending {
		r.hasPending = false
		return r.pending, r.pendingDir, true
	}
	if len(r.steps) > 0 || r.tape != nil && r.fetch() {
		st := &r.steps[0]
		r.steps = r.steps[1:]
		return st.Instr, &st.Dir, true
	}
	if r.srcDone {
		return prog.Instr{}, nil, false
	}
	if ins, ok = r.cur.Next(); !ok {
		r.srcDone = true
	}
	return ins, nil, ok
}

// fetch refills the step buffer from the tape. Once the tape holds no
// more steps for this runner, the stream's rest — past the cap, a
// private generator — becomes the runner's source and fetch reports
// false from then on.
func (r *runner) fetch() bool {
	if r.steps = r.tape.Steps(); len(r.steps) > 0 {
		return true
	}
	r.cur, r.tape = r.tape.Rest(), nil
	return false
}

// velocity returns the absolute velocity of a move along the local
// angle theta, whose unit direction geom.Polar(theta) is *dir when the
// tape stored it. It is phys.Attributes.DirAbs(theta).Scale(Speed),
// bit for bit, with the frame computed once and the direction looked
// up rather than recomputed.
func (r *runner) velocity(theta float64, dir *geom.Vec2) geom.Vec2 {
	if dir == nil {
		if r.memo == nil {
			r.memo = dirMemos.Get().(*dirMemo)
		}
		dir = r.memo.polar(theta)
	}
	return r.frame.Apply(*dir).Scale(r.attrs.Speed)
}

// dirMemoBits sizes the direction memo: 2^dirMemoBits slots.
const dirMemoBits = 6

// dirMemo is a direct-mapped cache of geom.Polar keyed by the angle's
// float64 bits, so equal keys are equal inputs and a hit is exact. The
// programs repeat few directions over long stretches (a planar walk
// uses four per rotation, a backtrack the same ones turned by π), so a
// handful of slots absorbs nearly every sin/cos a long run would pay.
type dirMemo [1 << dirMemoBits]struct {
	bits uint64
	dir  geom.Vec2
}

// dirMemos recycles memos between runs. Every entry is exact for any
// run, so a recycled memo needs no reset, and the short generator-served
// runs of a batch start warm and allocate nothing.
var dirMemos = sync.Pool{New: func() any { return newDirMemo() }}

// newDirMemo returns a memo whose slots all hold the angle +0 (bits 0)
// and its direction, so no slot needs a validity flag.
func newDirMemo() *dirMemo {
	m, d0 := new(dirMemo), geom.Polar(0)
	for i := range m {
		m[i].dir = d0
	}
	return m
}

// dirSlot hashes an angle's bits to its memo slot.
func dirSlot(bits uint64) uint64 { return (bits * 0x9E3779B97F4A7C15) >> (64 - dirMemoBits) }

// polar returns geom.Polar(theta) from the slot theta's bits hash to,
// recomputing it on a miss.
func (m *dirMemo) polar(theta float64) *geom.Vec2 {
	b := math.Float64bits(theta)
	e := &m[dirSlot(b)]
	if e.bits != b {
		e.bits, e.dir = b, geom.Polar(theta)
	}
	return &e.dir
}

// record appends a decimated trace point at absolute time t.
func (r *runner) record(t float64) {
	if r.cap <= 0 {
		return
	}
	r.skipped++
	if r.skipped < r.stride {
		return
	}
	r.skipped = 0
	if len(r.trace) >= r.cap {
		// Halve the density, double the stride.
		kept := r.trace[:0]
		for i := 0; i < len(r.trace); i += 2 {
			kept = append(kept, r.trace[i])
		}
		r.trace = kept
		r.stride *= 2
	}
	r.trace = append(r.trace, TracePoint{t, r.pos})
}

// advanceTo moves the runner's position to absolute time t (≤ segEnd).
func (r *runner) advanceTo(now dd.T, t dd.T) {
	if r.vel == (geom.Vec2{}) {
		return
	}
	dt := t.Sub(now).Float64()
	r.pos = r.pos.Add(r.vel.Scale(dt))
}

// loadSegment pulls the next instruction and installs the segment
// starting at the given absolute time. Returns false when the program is
// exhausted. With coalescing enabled, a wait instruction absorbs every
// immediately following wait (up to waitFuseLimit, and only while the
// segment end stays below the MaxTime horizon), so runs of scheduling
// waits cost a single segment; the first non-wait look-ahead is buffered
// for the next call. Local time is accumulated per instruction either
// way, so fused and unfused runs agree on every boundary exactly.
func (r *runner) loadSegment(start dd.T) bool {
	for {
		ins, dir, ok := r.take()
		if !ok {
			r.ended = true
			r.vel = geom.Vec2{}
			return false
		}
		if ins.Amount <= 0 {
			continue
		}
		r.local = r.local.AddFloat(ins.Duration())
		if ins.Op == prog.OpWait {
			r.vel = geom.Vec2{}
			if r.coalesce {
				r.fuseWaits()
			}
		} else {
			r.vel = r.velocity(ins.Theta, dir)
		}
		// Absolute end = wake + τ·local, computed from the exact local
		// accumulator so long schedules do not drift.
		r.segEnd = r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)
		r.record(start.Float64())
		return true
	}
}

// fuseWaits extends the current wait segment over every immediately
// following wait instruction. Each absorbed wait is added to the local
// clock individually, preserving the exact dd accumulation order of the
// unfused path. Fusing stops at the first non-wait (buffered as pending),
// at source exhaustion, at waitFuseLimit, or once the segment end passes
// the MaxTime horizon (later waits cannot influence the run).
func (r *runner) fuseWaits() {
	for fused := 0; fused < waitFuseLimit; fused++ {
		if r.maxTime.LessEq(r.local.MulFloat(r.attrs.Tau).AddFloat(r.attrs.Wake)) {
			return
		}
		ins, dir, ok := r.take()
		if !ok {
			return
		}
		if ins.Amount <= 0 {
			continue
		}
		if ins.Op != prog.OpWait {
			r.pending, r.pendingDir, r.hasPending = ins, dir, true
			return
		}
		r.local = r.local.AddFloat(ins.Duration())
	}
}

// freeze stops the runner forever at its current position.
func (r *runner) freeze() {
	r.frozen = true
	r.vel = geom.Vec2{}
	r.stop()
}

// Run simulates the two agents until rendezvous or a bound trips.
func Run(a, b AgentSpec, s Settings) Result {
	if s.MaxTime <= 0 {
		s.MaxTime = math.Inf(1)
	}
	if s.MaxSegments <= 0 {
		s.MaxSegments = math.MaxInt
	}
	maxTime := dd.FromFloat(s.MaxTime)
	var ra, rb runner
	ra.init(a, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	rb.init(b, s.SightSlack, s.TraceCap, maxTime, !s.NoWaitCoalesce)
	defer ra.stop()
	defer rb.stop()

	// rBig/rSmall: staged stopping per Section 5. The far-sighted agent
	// freezes at gap ≤ rBig; rendezvous completes at gap ≤ rSmall.
	rSmall := math.Min(ra.radius, rb.radius)
	rBig := math.Max(ra.radius, rb.radius)

	res := Result{MinGap: math.Inf(1)}
	now := dd.Zero
	segments := 0

	finish := func(reason StopReason, at dd.T) Result {
		res.Reason = reason
		res.Met = reason == ReasonMet
		if res.Met {
			res.MeetTime = at
		}
		res.EndTime = at
		res.EndA, res.EndB = ra.pos, rb.pos
		res.Segments = segments
		ra.record(at.Float64())
		rb.record(at.Float64())
		res.TraceA, res.TraceB = ra.trace, rb.trace
		return res
	}

	noteGap := func(g float64, at dd.T) {
		if g < res.MinGap {
			res.MinGap = g
			res.MinGapTime = at
		}
	}

	for {
		// Ensure both runners have a current segment covering `now`.
		for _, r := range [2]*runner{&ra, &rb} {
			for !r.frozen && !r.ended && r.segEnd.LessEq(now) {
				if segments++; segments > s.MaxSegments {
					noteGap(ra.pos.Dist(rb.pos), now)
					return finish(ReasonMaxSegments, now)
				}
				if !r.loadSegment(now) {
					break
				}
			}
		}

		// Determine the end of the current homogeneous interval.
		end := maxTime
		active := false
		for _, r := range [2]*runner{&ra, &rb} {
			if !r.frozen && !r.ended {
				end = dd.Min(end, r.segEnd)
				active = true
			}
		}
		// Analytic sight detection over [now, end].
		T := end.Sub(now).Float64()
		if T < 0 {
			T = 0
		}
		ma := geom.Moving{P: ra.pos, V: ra.vel}
		mb := geom.Moving{P: rb.pos, V: rb.vel}
		app := geom.ClosestApproach(ma, mb, T)
		noteGap(app.DMin, now.AddFloat(app.SMin))

		sSmall, okSmall := geom.FirstWithin(ma, mb, T, rSmall)
		if rBig > rSmall {
			// Section 5 staged stop: the far-sighted agent freezes at gap
			// rBig, which must be processed before any rSmall contact that
			// would only happen with both agents still moving.
			if sBig, okBig := geom.FirstWithin(ma, mb, T, rBig); okBig && (!okSmall || sBig < sSmall) {
				at := now.AddFloat(sBig)
				ra.advanceTo(now, at)
				rb.advanceTo(now, at)
				if ra.radius >= rb.radius && !ra.frozen {
					ra.freeze()
				} else if !rb.frozen {
					rb.freeze()
				}
				rBig = rSmall // staged stop done; only the meet remains
				now = at
				continue
			}
		}
		if okSmall {
			at := now.AddFloat(sSmall)
			ra.advanceTo(now, at)
			rb.advanceTo(now, at)
			noteGap(ra.pos.Dist(rb.pos), at)
			return finish(ReasonMet, at)
		}

		// No sight possible in this interval: if neither agent will ever
		// move again the gap is settled for good.
		if !active {
			return finish(ReasonProgramsEnded, now)
		}
		// Advance to the interval end.
		ra.advanceTo(now, end)
		rb.advanceTo(now, end)
		now = end

		if maxTime.LessEq(now) {
			return finish(ReasonMaxTime, now)
		}
	}
}
