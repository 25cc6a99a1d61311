// Package commopt reproduces the system of Choi & Snyder, "Quantifying
// the Effects of Communication Optimizations" (ICPP 1997): a ZPL-subset
// compiler front end, a machine-independent communication optimizer
// (redundant communication removal, communication combination,
// communication pipelining) over the IRONMAN interface, and an SPMD
// runtime that executes programs on simulated Intel Paragon and Cray T3D
// machines with NX, PVM and SHMEM communication cost models.
//
// Typical use:
//
//	prog, err := commopt.Compile(source)
//	plan := prog.Plan(comm.PL())
//	res, err := prog.Run(plan, commopt.RunOptions{
//		Machine: "t3d", Library: "pvm", Procs: 64,
//	})
//	fmt.Println(res.ExecTime, plan.StaticCount, res.DynamicTransfers)
package commopt

import (
	"fmt"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// Program is a compiled ZPL program ready for planning and execution.
type Program struct {
	AST *zpl.Program
	IR  *ir.Program
}

// Compile parses and lowers ZPL source text.
func Compile(src string) (*Program, error) {
	ast, err := zpl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	low, err := ir.Lower(ast)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return &Program{AST: ast, IR: low}, nil
}

// Plan runs the communication optimizer with the given options.
func (p *Program) Plan(opts comm.Options) *comm.Plan {
	return comm.BuildPlan(p.IR, opts)
}

// The optimizer's pass-pipeline API, re-exported so callers can select
// pass lists, read per-pass traces, and enable inter-pass validation
// without importing the internal package directly.
type (
	// Pipeline is an ordered list of optimizer passes over shared block
	// analyses.
	Pipeline = comm.Pipeline
	// Pass is one stage of the pipeline.
	Pass = comm.Pass
	// Trace records what every pass did during a build.
	Trace = comm.Trace
	// PassTrace is one pass's entry in a Trace.
	PassTrace = comm.PassTrace
)

// NewPipeline returns the pass pipeline the options select.
func NewPipeline(opts comm.Options) *Pipeline {
	return comm.NewPipeline(opts)
}

// PipelineFor returns a pipeline running exactly the named passes (see
// comm.PassNames), validating the list.
func PipelineFor(opts comm.Options, names []string) (*Pipeline, error) {
	return comm.PipelineFor(opts, names)
}

// PlanWith runs an explicit pass pipeline over the program. With
// pl.Debug set, the plan is validity-checked after every pass and the
// first pass to break it is named in the error.
func (p *Program) PlanWith(pl *Pipeline) (*comm.Plan, error) {
	return pl.Build(p.IR)
}

// Inlined returns a copy of the program with every procedure call
// expanded in place (the paper's Section 4 inlining extension), widening
// the basic blocks the communication optimizer works over.
func (p *Program) Inlined() *Program {
	return &Program{AST: p.AST, IR: ir.Inline(p.IR)}
}

// RunOptions selects the simulated environment for Run.
type RunOptions struct {
	Machine string // "t3d" (default) or "paragon"
	Library string // "pvm" (default), "shmem", "csend", "isend", "hsend"
	Procs   int    // default 64
	Configs map[string]float64

	// Collective forces the allreduce algorithm: "star", "tree",
	// "butterfly" or "twolevel". Empty or "auto" selects the cheapest
	// eligible algorithm under the machine's cost model. Floating-point
	// reduction results are bit-identical across all algorithms.
	Collective string

	// SchedWorkers bounds the M:N scheduler's worker pool
	// (0 = GOMAXPROCS). With 1, processors are stepped one at a time —
	// the scheduler's differential-testing reference; results are
	// identical at any pool size.
	SchedWorkers int
}

// Run executes the program under a plan on the simulated machine.
func (p *Program) Run(plan *comm.Plan, opts RunOptions) (*rt.Result, error) {
	if opts.Machine == "" {
		opts.Machine = "t3d"
	}
	if opts.Library == "" {
		opts.Library = "pvm"
	}
	if opts.Procs == 0 {
		opts.Procs = 64
	}
	mach, err := machine.ByName(opts.Machine)
	if err != nil {
		return nil, err
	}
	if opts.Collective == "" {
		opts.Collective = "auto"
	}
	alg, err := collective.ParseAlg(opts.Collective)
	if err != nil {
		return nil, err
	}
	return rt.Run(p.IR, plan, rt.Config{
		Machine:      mach,
		Library:      opts.Library,
		Procs:        opts.Procs,
		Collective:   alg,
		ConfigVars:   opts.Configs,
		SchedWorkers: opts.SchedWorkers,
	})
}
