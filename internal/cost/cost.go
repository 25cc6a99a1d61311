// Package cost is the whole-program static analyzer over compiled
// communication plans: a closed-form cost predictor and an IRONMAN
// protocol checker.
//
// The predictor (Predict) walks a program's structured control flow
// abstractly — scalar state is replicated SPMD-style, so one walk stands
// for all processors — resolving every transfer's rectangles from the
// block distribution and pricing each IRONMAN call with the machine
// library's primitive costs. For statically predictable programs (all
// control decisions fold to config/constant arithmetic; the four
// benchmarks qualify) the predicted message count, byte volume and
// per-processor communication overhead equal the runtime's measured
// values exactly — the differential gate TestPredictMatchesRuntime in
// internal/experiments holds the two accountings together.
//
// The protocol checker (Check) verifies what IRONMAN well-formedness
// needs a machine binding for: cross-processor pairing symmetry, the
// per-(proc,peer) in-flight bound the runtime's mailbox budget
// (rt.PairChanCap) rests on, and the collective schedules. Call sets,
// placement and SPMD call order need no binding and are
// comm.CheckPlan's. It turns the prose deadlock-freedom arguments of
// DESIGN.md §13/§14 into checked analysis with distinct rule IDs (see
// protocol.go), surfaced through internal/diag like the plan checker.
//
// Like the plan checker (DESIGN.md §10), this package deliberately imports
// nothing from internal/rt. The scalar operators and the setup are ir's, so
// both read the same program; block ownership, geometry and call accounting
// are re-derived from grid/machine primitives, so the predictor is an
// independent oracle rather than a restatement of the runtime.
package cost

import (
	"errors"

	"commopt/internal/collective"
	"commopt/internal/grid"
	"commopt/internal/machine"
)

// Config selects the configuration a prediction or protocol check is
// evaluated under. It mirrors the fields of rt.Config that affect
// communication.
type Config struct {
	Machine *machine.Machine
	Library string // key into Machine.Libs, e.g. "pvm", "shmem", "csend"
	Procs   int    // number of virtual processors

	// Collective selects the allreduce algorithm, mirroring
	// rt.Config.Collective: Auto resolves to the cheapest eligible
	// algorithm through collective.Choose, the same call the runtime
	// makes, so a prediction always prices the hop pattern the run
	// executes.
	Collective collective.Alg

	// ConfigVars overrides the program's config variable defaults by name.
	ConfigVars map[string]float64
}

// Bind resolves a command line's binding by name before anything runs:
// the machine model, its library, the mesh of procs processors and the
// allreduce algorithm ("" is auto), which when forced must be eligible on
// that mesh (a lone processor runs no collective, so it takes any). Auto
// always binds, so Bind prices nothing. A command that binds first fails
// on a bad binding before it prints anything.
func Bind(mach, lib string, procs int, coll string) (Config, error) {
	if coll == "" {
		coll = collective.Auto.String()
	}
	m, err := machine.ByName(mach)
	if err != nil {
		return Config{}, err
	}
	l, err := m.Lib(lib)
	if err != nil {
		return Config{}, err
	}
	mesh, err := grid.MeshFor(procs)
	if err != nil {
		return Config{}, err
	}
	alg, err := collective.ParseAlg(coll)
	if err != nil {
		return Config{}, err
	}
	if alg != collective.Auto && mesh.Size() > 1 {
		if _, err := collective.Resolve(alg, l, mesh); err != nil {
			return Config{}, err
		}
	}
	return Config{Machine: m, Library: lib, Procs: procs, Collective: alg}, nil
}

func (c Config) validate() (*machine.Lib, error) {
	if c.Machine == nil {
		return nil, errors.New("cost: no machine model")
	}
	return c.Machine.Lib(c.Library)
}

// ErrNotStatic marks programs whose communication volume is not
// statically predictable: some control decision (loop trip count, branch
// condition, literal region bound) depends on computed array data, so the
// walk cannot fold it. The plan checker (comm.CheckPlan) still applies to
// such programs; only the binding-dependent analyses need the walk.
var ErrNotStatic = errors.New("not statically predictable")
