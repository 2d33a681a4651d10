package prog_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/prog"
)

// sameInstr compares instructions bit for bit.
func sameInstr(a, b prog.Instr) bool {
	return a.Op == b.Op &&
		math.Float64bits(a.Theta) == math.Float64bits(b.Theta) &&
		math.Float64bits(a.Amount) == math.Float64bits(b.Amount)
}

// TestTapeMatchesGenerator: the tape-backed AlmostUniversalRV program
// yields exactly the generator's instructions — on the tape, across the
// cap, and past it on the private generator — and every direction the
// tape stores is bit-equal to geom.Polar of its angle.
func TestTapeMatchesGenerator(t *testing.T) {
	const n = 3 * prog.TapeCap
	want := prog.Take(core.Program(core.Compact(), new(core.Progress)), n)

	c, ok := prog.NewCursor(core.Program(core.Compact(), nil)).(*prog.TapeCursor)
	if !ok {
		t.Fatal("core.Program(Compact(), nil) is not tape-backed")
	}
	defer c.Close()
	i := 0
	for steps := c.Steps(); len(steps) > 0; steps = c.Steps() {
		for _, st := range steps {
			if !sameInstr(st.Instr, want[i]) {
				t.Fatalf("tape step %d = %+v, generator %+v", i, st.Instr, want[i])
			}
			if st.Op == prog.OpMove {
				if p := geom.Polar(st.Theta); math.Float64bits(st.Dir.X) != math.Float64bits(p.X) ||
					math.Float64bits(st.Dir.Y) != math.Float64bits(p.Y) {
					t.Fatalf("tape step %d: stored direction %v, geom.Polar %v", i, st.Dir, p)
				}
			} else if st.Dir != (geom.Vec2{}) {
				t.Fatalf("tape step %d: wait stores direction %v", i, st.Dir)
			}
			i++
		}
	}
	if i != prog.TapeCap {
		t.Fatalf("tape holds %d steps, want the cap %d", i, prog.TapeCap)
	}
	rest := c.Rest()
	for ; i < n; i++ {
		ins, ok := rest.Next()
		if !ok || !sameInstr(ins, want[i]) {
			t.Fatalf("instruction %d past the cap = %+v (ok %v), generator %+v", i, ins, ok, want[i])
		}
	}

	// The plain Cursor view of the same program agrees too.
	if got := prog.Take(core.Program(core.Compact(), nil), n); len(got) != n {
		t.Fatalf("tape program yielded %d instructions, want %d", len(got), n)
	} else {
		for i := range got {
			if !sameInstr(got[i], want[i]) {
				t.Fatalf("Next view: instruction %d = %+v, generator %+v", i, got[i], want[i])
			}
		}
	}
}

// TestTapeProgramContract: every iteration of the tape program starts
// at instruction 0, Close is idempotent, and leaving a range loop early
// closes the cursor — including a private generator it opened past the
// cap.
func TestTapeProgramContract(t *testing.T) {
	p := core.Program(core.Compact(), nil)
	first := prog.Take(p, 1)[0]
	for round := 0; round < 2; round++ {
		k := 0
		for ins := range p {
			if k == 0 && !sameInstr(ins, first) {
				t.Fatalf("iteration %d starts at %+v, want instruction 0 %+v", round, ins, first)
			}
			if k++; k == 5 {
				break
			}
		}
	}

	c := prog.NewCursor(p)
	for k := 0; k < prog.TapeCap+10; k++ {
		c.Next()
	}
	c.Close()
	c.Close()

	src := &countedSource{}
	tape := prog.NewTape(src.program())
	k := 0
	for range tape.Program() {
		if k++; k == prog.TapeCap+10 {
			break
		}
	}
	if src.opened != 2 || src.closed != 2 {
		t.Fatalf("after an early break past the cap: %d source cursors opened, %d closed; want the master and one private generator, both closed",
			src.opened, src.closed)
	}
}

// countedSource is an endless pure stream whose cursors count their
// opening and closing (on one goroutine).
type countedSource struct{ opened, closed int }

func (s *countedSource) program() prog.Program {
	return prog.CursorProgram(func() prog.Cursor {
		s.opened++
		return &countedCursor{s: s}
	})
}

type countedCursor struct {
	s      *countedSource
	i      int
	closed bool
}

func (c *countedCursor) Next() (prog.Instr, bool) {
	c.i++
	return prog.Move(float64(c.i%7), 1), true
}

func (c *countedCursor) Close() {
	if !c.closed {
		c.closed = true
		c.s.closed++
	}
}

// TestTapeConcurrentReaders: eight goroutines drain one fresh tape
// across its cap at once — racing to extend it, then each on its own
// private generator — and all see the generator's stream.
func TestTapeConcurrentReaders(t *testing.T) {
	const n = 2*prog.TapeCap + 100
	// A tweaked schedule is never canonical, so this is a generator of
	// the same pure stream the canonical compact tape holds.
	s := core.Compact()
	s.Type3WaitExp = func(i int) float64 { return 10 * float64(i) }
	src := core.Program(s, nil)
	if _, ok := prog.NewCursor(src).(*prog.TapeCursor); ok {
		t.Fatal("a tweaked schedule got the shared tape")
	}
	want := prog.Take(src, n)
	tape := prog.NewTape(src)

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := prog.NewCursor(tape.Program())
			defer c.Close()
			for i := 0; i < n; i++ {
				ins, ok := c.Next()
				if !ok || !sameInstr(ins, want[i]) {
					errs <- "reader diverged from the generator"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTapeFiniteStream: a stream that ends within the cap ends on the
// tape too, for every reader, and Rest is then an exhausted cursor.
func TestTapeFiniteStream(t *testing.T) {
	list := []prog.Instr{prog.Move(prog.North, 1), prog.Wait(2), prog.Move(1, 3)}
	tape := prog.NewTape(prog.Instrs(list...))
	for round := 0; round < 2; round++ {
		if got := prog.Collect(tape.Program()); len(got) != len(list) {
			t.Fatalf("round %d: %d instructions, want %d", round, len(got), len(list))
		}
	}
	c := prog.NewCursor(tape.Program()).(*prog.TapeCursor)
	defer c.Close()
	if steps := c.Steps(); len(steps) != len(list) {
		t.Fatalf("Steps returned %d steps, want %d", len(steps), len(list))
	}
	if steps := c.Steps(); len(steps) != 0 {
		t.Fatalf("Steps past the end returned %d steps", len(steps))
	}
	if _, ok := c.Rest().Next(); ok {
		t.Fatal("Rest of an ended stream yields an instruction")
	}
}
