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
//
// The plan rules run in the default mode. -protocol runs instead the
// rules that need a machine binding (internal/cost: pairing symmetry,
// in-flight bounds, collective schedules) over every optimization level ×
// machine × library binding at -procs processors. The closed-form
// communication forecast is zplc -predict's: zplvet only judges.
//
// Exit status: 0 when clean, 1 when any finding was reported, 2 on usage
// or I/O errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/diag"
	"commopt/internal/grid"
	"commopt/internal/lint"
	"commopt/internal/programs"
	"commopt/internal/vet"
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
	procs    int
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
	fs.IntVar(&cfg.procs, "procs", 64, "processor count for -protocol")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.files = fs.Args()
	if !cfg.rules && cfg.bench == "" && len(cfg.files) == 0 {
		return nil, fmt.Errorf("usage: zplvet [flags] file.zpl... (or -bench name|all)")
	}
	if _, err := grid.MeshFor(cfg.procs); err != nil {
		return nil, fmt.Errorf("-procs: %w", err)
	}
	return cfg, nil
}

// run vets args and writes the findings to stdout through a buffer whose
// first failed write sticks: output that was lost is an I/O error, exit 2.
func run(stdout io.Writer, args []string) (code int, err error) {
	w := bufio.NewWriter(stdout)
	defer func() {
		if ferr := w.Flush(); ferr != nil && err == nil {
			code, err = 2, ferr
		}
	}()
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

	inputs, err := programs.Load(cfg.bench, cfg.files)
	if err != nil {
		return 2, err
	}

	var all []diag.Finding
	for _, in := range inputs {
		var list *diag.List
		if cfg.protocol {
			list, err = vet.Protocol(in.Name, in.Source, cfg.procs)
			if err != nil {
				return 2, err
			}
		} else {
			list = vet.Source(in.Name, in.Source)
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
