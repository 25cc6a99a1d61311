// Package vet is the shared static-analysis driver behind cmd/zplvet and
// zplc -vet: it carries one ZPL source file through every layer —
// recovered parse diagnostics, the source linter, lowering, and the
// communication-plan checker at every optimization level — and collects
// the findings in one diag.List.
package vet

import (
	"errors"
	"fmt"

	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/diag"
	"commopt/internal/ir"
	"commopt/internal/lint"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// Driver rule IDs for front-end failures (the lint and plan rules carry
// their own).
const (
	RuleParse = "parse-error"
	RuleSema  = "sema-error"
)

// Level is one optimizer configuration the plan checker checks.
type Level struct {
	Name string
	Opts comm.Options
}

// Levels returns every optimization level zplvet validates: the paper's
// four levels, the alternative combining heuristic, and the hoisting
// extension.
func Levels() []Level {
	return []Level{
		{"baseline", comm.Baseline()},
		{"rr", comm.RR()},
		{"cc", comm.CC()},
		{"pl", comm.PL()},
		{"pl-maxlat", comm.PLMaxLatency()},
		{"pl+hoist", comm.Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}},
	}
}

// Source analyzes one ZPL source file and returns its sorted findings.
// Parse errors stop the run (later layers would only cascade); lint
// findings do not, so a warning never masks a plan-checker error.
func Source(name, src string) *diag.List {
	list := diag.NewList(name, src)

	ast, errs := zpl.ParseAll(src)
	for _, e := range errs {
		list.Add(RuleParse, diag.Error, e.Pos, "%s", e.Msg)
	}
	if len(errs) > 0 {
		list.Sort()
		return list
	}

	lint.Run(ast, list)

	prog, err := ir.Lower(ast)
	if err != nil {
		if e, ok := err.(*zpl.Error); ok {
			list.Add(RuleSema, diag.Error, e.Pos, "%s", e.Msg)
		} else {
			list.Add(RuleSema, diag.Error, zpl.Pos{}, "%v", err)
		}
		list.Sort()
		return list
	}

	// Translation validation: every optimization level's plan must satisfy
	// the independently re-derived communication requirements.
	for _, lv := range Levels() {
		plan := comm.BuildPlan(prog, lv.Opts)
		for _, f := range comm.CheckPlan(plan) {
			f.Msg = fmt.Sprintf("[%s] %s", lv.Name, f.Msg)
			list.Extend(f)
		}
	}
	list.Sort()
	return list
}

// Protocol runs the IRONMAN protocol checker for one source file across
// every optimization level, every simulated machine and every library
// binding, at the given processor count: the binding-dependent rules
// (pairing symmetry, in-flight bounds against the runtime's channel
// capacity, collective schedules). The plan rules, machine-independent,
// are Source's. Programs whose communication is not statically
// predictable are skipped silently — the checker needs the walk.
func Protocol(name, src string, procs int) (*diag.List, error) {
	list := diag.NewList(name, src)

	ast, err := zpl.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, err
	}

	for _, lv := range Levels() {
		plan := comm.BuildPlan(prog, lv.Opts)
		capacity := rt.PairChanCap(plan)
		for _, m := range machine.All() {
			for _, libName := range m.LibNames() {
				cfg := cost.Config{Machine: m, Library: libName, Procs: procs}
				fs, err := cost.Check(prog, plan, cfg, capacity)
				if err != nil {
					if errors.Is(err, cost.ErrNotStatic) {
						continue
					}
					return nil, fmt.Errorf("[%s/%s/%s] %w", lv.Name, m.Name, libName, err)
				}
				for _, f := range fs {
					f.Msg = fmt.Sprintf("[%s/%s/%s] %s", lv.Name, m.Name, libName, f.Msg)
					list.Extend(f)
				}
			}
		}
	}
	list.Sort()
	return list, nil
}
