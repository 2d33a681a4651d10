package sim_test

// Differential tests for the shared tape: a simulation that reads an
// agent's program from a prog.Tape (steps with stored directions, then
// a private generator past the cap) must produce the Result of the
// same program pulled from a generator, in every field.

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/inst"
	"repro/internal/prog"
	"repro/internal/sim"
)

// pastCap is a segment budget of more than 4× the tape's 16,384-step
// cap: on a miss each agent loads about half the segments, and every
// segment takes at least one instruction, so both agents read past it.
const pastCap = 100_000

// tapeAndGenerator returns a case's program in both spellings: the
// tape-backed one (the process-wide tape for AlmostUniversalRV, a fresh
// tape over the program otherwise) and a generator of the same stream.
func tapeAndGenerator(c diffCase) (tape, gen func() prog.Program) {
	if _, ok := prog.NewCursor(c.mk()).(*prog.TapeCursor); ok {
		return c.mk, func() prog.Program { return core.Program(core.Compact(), new(core.Progress)) }
	}
	t := prog.NewTape(c.mk())
	return t.Program, c.mk
}

func runSpec(in inst.Instance, mk func() prog.Program, set sim.Settings) sim.Result {
	a := sim.AgentSpec{Attrs: in.AgentA(), Prog: mk(), Radius: in.R}
	b := sim.AgentSpec{Attrs: in.AgentB(), Prog: mk(), Radius: in.R}
	return sim.Run(a, b, set)
}

// TestTapeVsGeneratorByteIdentical: every differential case — the
// meeting ones and the no-meet one, whose agents both read past the
// cap — in both accounting modes, with and without a trace.
func TestTapeVsGeneratorByteIdentical(t *testing.T) {
	for _, c := range diffCases() {
		tape, gen := tapeAndGenerator(c)
		for _, noCoalesce := range []bool{false, true} {
			for _, traceCap := range []int{0, 64} {
				set := sim.DefaultSettings()
				set.MaxSegments = pastCap
				set.NoWaitCoalesce = noCoalesce
				set.TraceCap = traceCap
				got, want := runSpec(c.in, tape, set), runSpec(c.in, gen, set)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (noCoalesce=%v, traceCap=%d): tape and generator results differ\ntape:      %+v\ngenerator: %+v",
						c.name, noCoalesce, traceCap, got, want)
				}
				if c.name == "no-meet-budget" && got.Reason != sim.ReasonMaxSegments {
					t.Errorf("%s: ended %v, want a miss that spends the whole budget", c.name, got.Reason)
				}
			}
		}
	}
}

// TestTapeConcurrentRuns: simulations on several goroutines share one
// fresh tape, as a batch pool's workers do — racing to extend it and
// each crossing its cap — and every one returns the generator's Result.
func TestTapeConcurrentRuns(t *testing.T) {
	in := inst.Instance{R: 0.5, X: 2, Y: 0, Phi: 0, Tau: 1, V: 1, T: 0.7, Chi: 1}
	set := sim.DefaultSettings()
	set.MaxSegments = pastCap
	s := core.Compact()
	s.Type3WaitExp = func(i int) float64 { return 10 * float64(i) } // not canonical: a generator
	gen := func() prog.Program { return core.Program(s, nil) }
	want := runSpec(in, gen, set)
	tape := prog.NewTape(gen())

	const runs = 4
	got := make([]sim.Result, runs)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = runSpec(in, tape.Program, set)
		}()
	}
	wg.Wait()
	for g, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("run %d on the shared tape: %+v\ngenerator: %+v", g, r, want)
		}
	}
}
