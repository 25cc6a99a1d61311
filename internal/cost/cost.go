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
// The protocol checker (Check/CheckPlan) verifies IRONMAN
// well-formedness from the plan alone: call sets and placement,
// SPMD call order, absence of rendezvous wait cycles, cross-processor
// pairing symmetry, and the per-(proc,peer) in-flight bound the
// runtime's mailbox budget (rt.PairChanCap) rests on. It turns the
// prose deadlock-freedom arguments of DESIGN.md §13/§14 into checked
// analysis with distinct rule IDs (see protocol.go), surfaced through
// internal/diag like the plan verifier.
//
// Like the verifier (DESIGN.md §10), this package deliberately imports
// nothing from internal/rt: the distribution arithmetic, geometry and
// call accounting are re-derived from grid/machine primitives, so the
// predictor is an independent oracle rather than a restatement of the
// runtime.
package cost

import (
	"errors"
	"fmt"

	"commopt/internal/collective"
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
	// algorithm through collective.Resolve, the same call the runtime
	// makes, so a prediction always prices the hop pattern the run
	// executes.
	Collective collective.Alg

	// ConfigVars overrides the program's config variable defaults by name.
	ConfigVars map[string]float64
}

func (c Config) validate() (*machine.Lib, error) {
	if c.Procs < 1 {
		return nil, fmt.Errorf("cost: processor count %d < 1", c.Procs)
	}
	if c.Machine == nil {
		return nil, errors.New("cost: no machine model")
	}
	return c.Machine.Lib(c.Library)
}

// ErrNotStatic marks programs whose communication volume is not
// statically predictable: some control decision (loop trip count, branch
// condition, literal region bound) depends on computed array data, so the
// walk cannot fold it. Protocol structure checks still apply to such
// programs (CheckPlan); only the shape-dependent analyses need the walk.
var ErrNotStatic = errors.New("not statically predictable")
