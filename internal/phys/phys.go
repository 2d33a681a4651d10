// Package phys models the private attributes of a mobile agent and the
// conversion between its local coordinate system and the absolute one.
//
// Following §1.2 of the paper, each agent has a private Cartesian system
// with origin at its start position, rotated by φ with chirality χ
// relative to the absolute system, a clock whose tick lasts τ absolute
// time units, a constant speed v (absolute distance per absolute time),
// and a wake-up time t. Its private length unit is u = τ·v (the distance
// it travels during one of its time units).
package phys

import (
	"math"

	"repro/internal/geom"
)

// Attributes is the full private attribute bundle of one agent, expressed
// in absolute terms.
type Attributes struct {
	Origin geom.Vec2 // start position in the absolute system
	Phi    float64   // rotation of the x-axis, 0 ≤ φ < 2π
	Chi    int       // chirality: +1 or -1
	Tau    float64   // clock period in absolute time units, τ > 0
	Speed  float64   // speed in absolute units, v > 0
	Wake   float64   // wake-up time in absolute time units, t ≥ 0
}

// Reference returns the attributes of the reference agent A: identity
// frame, unit clock and speed, wake-up at 0.
func Reference() Attributes {
	return Attributes{Chi: 1, Tau: 1, Speed: 1}
}

// Unit returns the agent's private length unit u = τ·v in absolute units.
func (a Attributes) Unit() float64 { return a.Tau * a.Speed }

// Frame returns the linear part M = R_φ·S_χ of the local→absolute map.
// For χ = -1 this is the reflection across the line of inclination φ/2.
func (a Attributes) Frame() geom.Mat2 {
	m := geom.Rotation(a.Phi)
	if a.Chi < 0 {
		m = m.Mul(geom.FlipY)
	}
	return m
}

// ToAbs maps a point given in the agent's local units and axes to the
// absolute system: Origin + u·M·p.
func (a Attributes) ToAbs(p geom.Vec2) geom.Vec2 {
	return a.Origin.Add(a.Frame().Apply(p).Scale(a.Unit()))
}

// ToLocal inverts ToAbs.
func (a Attributes) ToLocal(q geom.Vec2) geom.Vec2 {
	m := a.Frame().Transpose() // frame is orthogonal: inverse = transpose
	return m.Apply(q.Sub(a.Origin)).Scale(1 / a.Unit())
}

// DirAbs maps a unit direction given as a local polar angle to the
// absolute unit direction. While executing go(theta, ·) the agent moves
// with velocity DirAbs(theta)·v.
func (a Attributes) DirAbs(theta float64) geom.Vec2 {
	return a.Frame().Apply(geom.Polar(theta))
}

// MoveDuration returns the absolute duration of go(dir, d): an agent
// travels d local length units at speed v, covering d·u absolute
// distance in d·u/v = d·τ absolute time.
func (a Attributes) MoveDuration(dLocal float64) float64 {
	return dLocal * a.Tau
}

// WaitDuration returns the absolute duration of wait(z): z local time
// units last z·τ absolute units.
func (a Attributes) WaitDuration(zLocal float64) float64 {
	return zLocal * a.Tau
}

// Valid reports whether the attribute bundle is physically meaningful.
func (a Attributes) Valid() bool {
	return a.Tau > 0 && a.Speed > 0 && a.Wake >= 0 &&
		(a.Chi == 1 || a.Chi == -1) &&
		a.Phi >= 0 && a.Phi < 2*math.Pi &&
		a.Origin.IsFinite()
}
