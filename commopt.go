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
	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/ir"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// Program is a compiled ZPL program ready for planning and execution.
type Program struct {
	AST *zpl.Program
	IR  *ir.Program
}

// Compile parses and lowers ZPL source text. Its error lists every
// syntax error, one line:col: msg per line.
func Compile(src string) (*Program, error) {
	ast, low, err := ir.Compile("", src)
	if err != nil {
		return nil, err
	}
	return &Program{AST: ast, IR: low}, nil
}

// Plan runs the communication optimizer with the given options.
func (p *Program) Plan(opts comm.Options) *comm.Plan {
	return comm.BuildPlan(p.IR, opts)
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
	bind, err := cost.Bind(opts.Machine, opts.Library, opts.Procs, opts.Collective)
	if err != nil {
		return nil, err
	}
	return rt.Run(p.IR, plan, rt.Config{
		Machine:      bind.Machine,
		Library:      bind.Library,
		Procs:        bind.Procs,
		Collective:   bind.Collective,
		ConfigVars:   opts.Configs,
		SchedWorkers: opts.SchedWorkers,
	})
}
