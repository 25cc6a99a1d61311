// Command zplvet runs the static-analysis suite over ZPL source files:
// recovered parse diagnostics, the source linter (internal/lint), and
// translation validation of the communication optimizer — every
// optimization level's plan re-checked against independently derived
// communication requirements and IRONMAN call rules (comm.CheckPlan).
//
// Usage:
//
//	zplvet file.zpl...            lint + verify source files
//	zplvet -bench tomcatv         analyze one bundled benchmark
//	zplvet -bench all             analyze every bundled benchmark
//	zplvet -json file.zpl         machine-readable findings (for CI)
//	zplvet -rules                 list every lint, plan and protocol rule
//	zplvet -protocol file.zpl     IRONMAN protocol check, all machine bindings
//	zplvet -cost -bench simple    closed-form communication cost prediction
//
// The plan rules run in the default mode. -protocol runs instead the
// rules that need a machine binding (internal/cost: pairing symmetry,
// in-flight bounds, collective schedules) over every optimization level ×
// machine × library binding at -procs processors.
// -cost prints the predicted per-level communication volume and cost for
// one -machine/-lib binding; it reports, it does not judge, so it always
// exits 0 unless the prediction itself fails.
//
// Exit status: 0 when clean, 1 when any finding was reported, 2 on usage
// or I/O errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/diag"
	"commopt/internal/ir"
	"commopt/internal/lint"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/report"
	"commopt/internal/vet"
	"commopt/internal/zpl"
)

func main() {
	code, err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "zplvet:", err)
	}
	os.Exit(code)
}

// config is the parsed command line.
type config struct {
	json     bool
	rules    bool
	bench    string
	protocol bool
	costMode bool
	procs    int
	mach     string
	lib      string
	files    []string
}

// parseArgs parses the command line without exiting, so run can map every
// failure mode to the documented exit codes.
func parseArgs(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("zplvet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: zplvet [flags] file.zpl... (or -bench name|all)")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	fs.BoolVar(&cfg.json, "json", false, "emit findings as a JSON array")
	fs.BoolVar(&cfg.rules, "rules", false, "list every rule and exit")
	fs.StringVar(&cfg.bench, "bench", "", "analyze a bundled benchmark (tomcatv, swm, simple, sp) or \"all\"")
	fs.BoolVar(&cfg.protocol, "protocol", false, "run the binding-dependent protocol checker instead of lint+plan checks")
	fs.BoolVar(&cfg.costMode, "cost", false, "print the closed-form communication cost prediction instead of findings")
	fs.IntVar(&cfg.procs, "procs", 64, "processor count for -protocol and -cost")
	fs.StringVar(&cfg.mach, "machine", "t3d", "machine model for -cost: t3d or paragon")
	fs.StringVar(&cfg.lib, "lib", "pvm", "library binding for -cost (e.g. pvm, shmem, csend)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.files = fs.Args()
	if !cfg.rules && cfg.bench == "" && len(cfg.files) == 0 {
		return nil, fmt.Errorf("usage: zplvet [flags] file.zpl... (or -bench name|all)")
	}
	if cfg.protocol && cfg.costMode {
		return nil, fmt.Errorf("-protocol and -cost are mutually exclusive")
	}
	if cfg.costMode && cfg.json {
		return nil, fmt.Errorf("-cost prints tables, not findings; -json does not apply")
	}
	if cfg.procs < 1 {
		return nil, fmt.Errorf("-procs %d: need at least one processor", cfg.procs)
	}
	return cfg, nil
}

// machineFor maps the -machine flag to a model.
func machineFor(name string) (*machine.Machine, error) {
	switch name {
	case "t3d":
		return machine.T3D(), nil
	case "paragon":
		return machine.Paragon(), nil
	}
	return nil, fmt.Errorf("unknown machine %q (have t3d, paragon)", name)
}

func run(w io.Writer, args []string) (int, error) {
	cfg, err := parseArgs(args)
	if err == flag.ErrHelp {
		return 0, nil
	}
	if err != nil {
		return 2, err
	}
	if cfg.rules {
		printRules(w)
		return 0, nil
	}

	// Assemble the inputs: named files and/or bundled benchmarks.
	type input struct{ name, src string }
	var inputs []input
	for _, f := range cfg.files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 2, err
		}
		inputs = append(inputs, input{f, string(data)})
	}
	switch cfg.bench {
	case "":
	case "all":
		for _, b := range programs.Suite() {
			inputs = append(inputs, input{b.Name, b.Source})
		}
	default:
		b, err := programs.ByName(cfg.bench)
		if err != nil {
			return 2, err
		}
		inputs = append(inputs, input{b.Name, b.Source})
	}

	if cfg.costMode {
		for _, in := range inputs {
			if err := printCost(w, in.name, in.src, cfg); err != nil {
				return 2, err
			}
		}
		return 0, nil
	}

	var all []diag.Finding
	for _, in := range inputs {
		var list *diag.List
		if cfg.protocol {
			var err error
			list, err = vet.Protocol(in.name, in.src, cfg.procs)
			if err != nil {
				return 2, fmt.Errorf("%s: %w", in.name, err)
			}
		} else {
			list = vet.Source(in.name, in.src)
		}
		all = append(all, list.Findings...)
		if !cfg.json {
			list.Text(w, true)
		}
	}
	if cfg.json {
		if err := diag.WriteJSON(w, all); err != nil {
			return 2, err
		}
	}
	if len(all) > 0 {
		return 1, nil
	}
	return 0, nil
}

// printCost renders the closed-form prediction for one source file: a
// per-level summary plus the per-transfer breakdown of the highest
// optimization level. Programs whose communication is not statically
// predictable get a note instead of a table; that is not a finding.
func printCost(w io.Writer, name, src string, cfg *config) error {
	m, err := machineFor(cfg.mach)
	if err != nil {
		return err
	}
	ast, err := zpl.Parse(src)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	ccfg := cost.Config{Machine: m, Library: cfg.lib, Procs: cfg.procs}

	summary := &report.Table{
		Title:   fmt.Sprintf("%s: predicted communication (%s/%s, %d procs)", name, cfg.mach, cfg.lib, cfg.procs),
		Headers: []string{"level", "static", "dynamic", "messages", "bytes", "reductions", "comm (critical path)"},
	}
	var last *cost.Prediction
	var lastLevel string
	for _, lv := range vet.Levels() {
		plan := comm.BuildPlan(prog, lv.Opts)
		pred, err := cost.Predict(prog, plan, ccfg)
		if err != nil {
			if errors.Is(err, cost.ErrNotStatic) {
				fmt.Fprintf(w, "%s: not statically predictable: %v\n", name, err)
				return nil
			}
			return fmt.Errorf("%s [%s]: %w", name, lv.Name, err)
		}
		summary.AddRow(lv.Name, plan.StaticCount, pred.DynamicTransfers,
			pred.Messages, pred.BytesSent, pred.Reductions, pred.CommTime().String())
		last, lastLevel = pred, lv.Name
	}
	summary.Render(w)

	sites := &report.Table{
		Title:   fmt.Sprintf("%s: per-transfer breakdown at %s", name, lastLevel),
		Headers: []string{"site", "transfer", "hoisted", "executions", "messages", "bytes", "comm (all procs)"},
	}
	for _, s := range last.Sites {
		sites.AddRow(fmt.Sprintf("%d:%d", s.Pos.Line, s.Pos.Col), s.Label,
			s.Hoisted, s.Executions, s.Messages, s.Bytes, s.Comm.String())
	}
	sites.Render(w)
	return nil
}

// printRules lists every registered lint rule, the driver rules, the plan
// checker's rules and the protocol checker's.
func printRules(w io.Writer) {
	fmt.Fprintln(w, "front end:")
	fmt.Fprintf(w, "  %-23s %s\n", vet.RuleParse, "syntax error (parse recovers and reports all)")
	fmt.Fprintf(w, "  %-23s %s\n", vet.RuleSema, "lowering/semantic error")
	fmt.Fprintln(w, "lint:")
	for _, r := range lint.Rules() {
		fmt.Fprintf(w, "  %-23s %s\n", r.ID, r.Doc)
	}
	fmt.Fprintln(w, "plan checker (per optimization level):")
	for _, r := range comm.Rules() {
		fmt.Fprintf(w, "  %-23s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w, "protocol checker (-protocol, per level x machine x binding):")
	for _, r := range cost.ProtoRules() {
		fmt.Fprintf(w, "  %-23s %s\n", r[0], r[1])
	}
}
