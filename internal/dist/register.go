package dist

import (
	"repro/internal/cgkk"
	"repro/internal/core"
	"repro/internal/inst"
	"repro/internal/latecomers"
	"repro/internal/prog"
	"repro/internal/wire"
)

// The standard registry names. Exported so in-tree coordinators that
// wire-form jobs by hand (internal/exps) share one source of truth
// with the registrations below; the public rendezvous package composes
// the same strings from Schedule names, pinned by a test.
const (
	AlgAURVCompact  = "AlmostUniversalRV(compact)"
	AlgAURVFaithful = "AlmostUniversalRV(faithful)"
	AlgCGKK         = "CGKK"
	AlgLatecomers   = "Latecomers"
)

// The standard algorithm registrations. Any binary that links this
// package — every coordinator, every worker, every test — agrees on
// what these names mean, which is the premise of shipping algorithms
// by name. The names must match the Name fields the public rendezvous
// package puts on its Algorithm values (rendezvous has a test pinning
// the correspondence); per-instance dedicated algorithms are closures
// without stable identity and deliberately have no wire names — their
// jobs always run in the coordinator process. The AlmostUniversalRV
// programs ignore the instance, so each is built once here and shared
// by every job (each is its schedule's process-wide tape, which stays
// empty until a job reads it; see core.Program).
func init() {
	compact, faithful := core.Program(core.Compact(), nil), core.Program(core.Faithful(), nil)
	wire.RegisterAlgorithm(AlgAURVCompact, func(inst.Instance) prog.Program { return compact })
	wire.RegisterAlgorithm(AlgAURVFaithful, func(inst.Instance) prog.Program { return faithful })
	wire.RegisterAlgorithm(AlgCGKK, func(inst.Instance) prog.Program {
		return cgkk.Program(cgkk.Compact())
	})
	wire.RegisterAlgorithm(AlgLatecomers, func(inst.Instance) prog.Program {
		return latecomers.Program()
	})
}
