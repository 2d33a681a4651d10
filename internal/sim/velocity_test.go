package sim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/phys"
)

// sameVec compares vectors bit for bit (NaN payloads included).
func sameVec(a, b geom.Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestVelocityBitEqual: a move's velocity, whether a generator served
// it (the direction memo, cold or warm) or the tape did (a stored
// direction), is bit-equal to DirAbs(θ)·v, for every kind of angle the
// programs produce and for angles that evict each other from the memo.
func TestVelocityBitEqual(t *testing.T) {
	var thetas []float64
	for k := 0; k < 4; k++ {
		thetas = append(thetas, float64(k)*math.Pi/2) // compass
	}
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 1<<(i+1); j++ {
			a := geom.DyadicAngle(j, i) // block 1's rotations
			thetas = append(thetas, a, a+math.Pi/2, a+math.Pi, a+3*math.Pi/2)
		}
	}
	for _, th := range thetas {
		thetas = append(thetas, th+math.Pi) // backtracks
	}
	thetas = append(thetas, 0, math.Copysign(0, -1), math.NaN(), -math.Pi/3, 1e-300, 7*math.Pi)

	// At least one pair must share a memo slot, or the eviction path
	// goes untested.
	slots := map[uint64]uint64{}
	collided := false
	for _, th := range thetas {
		b := math.Float64bits(th)
		if prev, ok := slots[dirSlot(b)]; ok && prev != b {
			collided = true
		}
		slots[dirSlot(b)] = b
	}
	if !collided {
		t.Fatal("no two test angles share a memo slot")
	}

	for _, attrs := range []phys.Attributes{
		{Chi: 1, Tau: 1, Speed: 1},
		{Phi: 1.1, Chi: 1, Tau: 2, Speed: 0.5},
		{Phi: 5.9, Chi: -1, Tau: 0.3, Speed: 3},
	} {
		r := runner{attrs: attrs, frame: attrs.Frame()}
		// Two passes: the first fills (and evicts) memo slots, the
		// second reads whatever survived.
		for pass := 0; pass < 2; pass++ {
			for _, th := range thetas {
				want := attrs.DirAbs(th).Scale(attrs.Speed)
				if got := r.velocity(th, nil); !sameVec(got, want) {
					t.Errorf("attrs %+v θ=%v pass %d: generator-served velocity %v, DirAbs·v %v", attrs, th, pass, got, want)
				}
				dir := geom.Polar(th)
				if got := r.velocity(th, &dir); !sameVec(got, want) {
					t.Errorf("attrs %+v θ=%v: tape-served velocity %v, DirAbs·v %v", attrs, th, got, want)
				}
			}
		}
	}
}
