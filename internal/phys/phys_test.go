package phys

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randAttrs(rng *rand.Rand) Attributes {
	chi := 1
	if rng.Intn(2) == 0 {
		chi = -1
	}
	return Attributes{
		Origin: geom.V(rng.NormFloat64()*5, rng.NormFloat64()*5),
		Phi:    rng.Float64() * 2 * math.Pi,
		Chi:    chi,
		Tau:    0.1 + rng.Float64()*5,
		Speed:  0.1 + rng.Float64()*5,
		Wake:   rng.Float64() * 10,
	}
}

func TestReference(t *testing.T) {
	a := Reference()
	if !a.Valid() {
		t.Fatal("reference attributes invalid")
	}
	if a.Unit() != 1 {
		t.Errorf("unit = %v", a.Unit())
	}
	p := geom.V(2, 3)
	if got := a.ToAbs(p); got != p {
		t.Errorf("reference ToAbs = %v", got)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 1000; i++ {
		a := randAttrs(rng)
		p := geom.V(rng.NormFloat64()*10, rng.NormFloat64()*10)
		back := a.ToLocal(a.ToAbs(p))
		if !back.ApproxEqual(p, 1e-8) {
			t.Fatalf("roundtrip %v -> %v (attrs %+v)", p, back, a)
		}
	}
}

func TestFrameOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		a := randAttrs(rng)
		m := a.Frame()
		if got := m.Mul(m.Transpose()); !got.ApproxEqual(geom.Identity, 1e-9) {
			t.Fatalf("frame not orthogonal: %+v", m)
		}
		wantDet := float64(a.Chi)
		if d := m.Det(); math.Abs(d-wantDet) > 1e-9 {
			t.Fatalf("det = %v, want %v", d, wantDet)
		}
	}
}

// For χ = -1 the frame is the reflection across inclination φ/2
// (the geometric heart of Lemma 2.1).
func TestChiMinusOneIsReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 500; i++ {
		phi := rng.Float64() * 2 * math.Pi
		a := Attributes{Phi: phi, Chi: -1, Tau: 1, Speed: 1}
		if !a.Frame().ApproxEqual(geom.Reflection(phi/2), 1e-9) {
			t.Fatalf("frame != Ref(φ/2) for φ=%v", phi)
		}
	}
}

func TestDirAbs(t *testing.T) {
	// Agent rotated by π/2 with χ=1: local East is absolute North.
	a := Attributes{Phi: math.Pi / 2, Chi: 1, Tau: 1, Speed: 1}
	if got := a.DirAbs(0); !got.ApproxEqual(geom.V(0, 1), 1e-12) {
		t.Errorf("DirAbs(0) = %v", got)
	}
	// χ=-1 with φ=0: local North is absolute South.
	b := Attributes{Chi: -1, Tau: 1, Speed: 1}
	if got := b.DirAbs(math.Pi / 2); !got.ApproxEqual(geom.V(0, -1), 1e-12) {
		t.Errorf("mirror DirAbs(N) = %v", got)
	}
}

func TestDurationsAndUnit(t *testing.T) {
	a := Attributes{Chi: 1, Tau: 2, Speed: 3}
	if got := a.Unit(); got != 6 {
		t.Errorf("unit = %v", got)
	}
	// go(·, 5): 5 local units = 30 absolute distance at speed 3 → 10 abs
	// time = 5·τ.
	if got := a.MoveDuration(5); got != 10 {
		t.Errorf("MoveDuration = %v", got)
	}
	if got := a.WaitDuration(5); got != 10 {
		t.Errorf("WaitDuration = %v", got)
	}
	// Distance covered = duration · speed = 30 = d · u.
	if d := a.MoveDuration(5) * a.Speed; d != 5*a.Unit() {
		t.Errorf("distance mismatch: %v vs %v", d, 5*a.Unit())
	}
}

// TestMoveVelocity: go(dir, d) moves at speed v along DirAbs(dir) and
// covers d·u absolute distance in its MoveDuration.
func TestMoveVelocity(t *testing.T) {
	a := Attributes{Chi: 1, Tau: 2, Speed: 3}
	v := a.DirAbs(0).Scale(a.Speed)
	if !v.ApproxEqual(geom.V(3, 0), 1e-12) {
		t.Errorf("velocity = %v", v)
	}
	// Moving for the MoveDuration covers d·u absolute distance.
	d := 5.0
	covered := v.Scale(a.MoveDuration(d)).Norm()
	if math.Abs(covered-d*a.Unit()) > 1e-9 {
		t.Errorf("covered %v, want %v", covered, d*a.Unit())
	}
}

func TestValid(t *testing.T) {
	if !Reference().Valid() {
		t.Error("reference invalid")
	}
	bad := Reference()
	bad.Tau = 0
	if bad.Valid() {
		t.Error("τ=0 accepted")
	}
	bad = Reference()
	bad.Chi = 0
	if bad.Valid() {
		t.Error("χ=0 accepted")
	}
	bad = Reference()
	bad.Phi = 7
	if bad.Valid() {
		t.Error("φ≥2π accepted")
	}
	bad = Reference()
	bad.Wake = -1
	if bad.Valid() {
		t.Error("negative wake accepted")
	}
}
