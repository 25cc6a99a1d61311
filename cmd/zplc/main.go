// Command zplc compiles a ZPL program and reports its communication plan:
// the transfers the optimizer generates per basic block, their IRONMAN
// call placements, the static communication counts under each
// optimization level, and the per-pass pipeline trace.
//
// Usage:
//
//	zplc [-O baseline|rr|cc|pl|pl-maxlat] [-dump] [-counts] [-explain] file.zpl
//	zplc -bench tomcatv -counts         # compile a bundled benchmark
//	zplc -bench tomcatv -explain        # per-pass trace
//	zplc -passes emit,rr,pl file.zpl    # run an explicit pass list
//	zplc -bench simple -predict -procs 64 -lib shmem
//	                                    # closed-form communication forecast
//	                                    # at the selected -O level
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/report"
	"commopt/internal/vet"
	"commopt/internal/zpl"
)

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err == nil {
		err = run(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zplc:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	level   string
	dump    bool
	counts  bool
	explain bool
	vet     bool
	predict bool
	procs   int
	mach    string
	lib     string
	coll    string // allreduce algorithm for -predict
	bench   string
	inline  bool
	hoist   bool
	passes  []string // nil: the pass list the -O level selects
	file    string   // empty when bench is set
}

// parseArgs parses the command line, returning an error (never exiting or
// panicking) for unknown flags, unknown optimization levels, malformed
// pass lists or missing inputs, so the caller can report it cleanly. It
// returns flag.ErrHelp when usage was requested.
func parseArgs(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("zplc", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported by the caller, once
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: zplc [flags] file.zpl (or -bench name)")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	fs.StringVar(&cfg.level, "O", "pl", "optimization level: baseline, rr, cc, pl, pl-maxlat")
	fs.BoolVar(&cfg.dump, "dump", false, "dump every basic block's transfers and call placements")
	fs.BoolVar(&cfg.counts, "counts", false, "print static counts under every optimization level")
	fs.BoolVar(&cfg.explain, "explain", false, "print the per-pass pipeline trace (what each pass emitted, dropped, merged, moved)")
	fs.BoolVar(&cfg.vet, "vet", false, "run the static-analysis suite (lint + plan verification, like zplvet) and fail on findings")
	fs.BoolVar(&cfg.predict, "predict", false, "print the closed-form communication forecast for the selected -O level")
	fs.IntVar(&cfg.procs, "procs", 64, "processor count for -predict")
	fs.StringVar(&cfg.mach, "machine", "t3d", "machine model for -predict: t3d or paragon")
	fs.StringVar(&cfg.lib, "lib", "pvm", "library binding for -predict (e.g. pvm, shmem, csend)")
	fs.StringVar(&cfg.coll, "collective", "auto", "allreduce algorithm for -predict: auto, star, tree, butterfly, twolevel")
	fs.StringVar(&cfg.bench, "bench", "", "compile a bundled benchmark (tomcatv, swm, simple, sp) instead of a file")
	fs.BoolVar(&cfg.inline, "inline", false, "inline procedure calls before communication analysis (Section 4 extension)")
	fs.BoolVar(&cfg.hoist, "hoist", false, "hoist loop-invariant communication to loop preheaders (Section 4 extension)")
	passList := fs.String("passes", "", "explicit comma-separated pass list overriding -O/-hoist (e.g. emit,rr,pl; known: "+strings.Join(comm.PassNames(), ",")+")")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *passList != "" {
		cfg.passes = strings.Split(*passList, ",")
		for i := range cfg.passes {
			cfg.passes[i] = strings.TrimSpace(cfg.passes[i])
		}
	}
	if _, err := OptionsByName(cfg.level); err != nil {
		return nil, err
	}
	if cfg.procs < 1 {
		return nil, fmt.Errorf("-procs %d: need at least one processor", cfg.procs)
	}
	switch rest := fs.Args(); {
	case cfg.bench != "" && len(rest) == 0:
	case cfg.bench == "" && len(rest) == 1:
		cfg.file = rest[0]
	default:
		return nil, fmt.Errorf("usage: zplc [flags] file.zpl (or -bench name)")
	}
	return cfg, nil
}

// OptionsByName maps command-line level names to optimizer options.
func OptionsByName(name string) (comm.Options, error) {
	switch name {
	case "baseline":
		return comm.Baseline(), nil
	case "rr":
		return comm.RR(), nil
	case "cc":
		return comm.CC(), nil
	case "pl":
		return comm.PL(), nil
	case "pl-maxlat":
		return comm.PLMaxLatency(), nil
	}
	return comm.Options{}, fmt.Errorf("unknown optimization level %q (known: baseline, rr, cc, pl, pl-maxlat)", name)
}

// pipelineFor builds the pass pipeline the command line selects: either
// the -O level (plus -hoist), or the explicit -passes list.
func pipelineFor(cfg *config) (*comm.Pipeline, error) {
	opts, err := OptionsByName(cfg.level)
	if err != nil {
		return nil, err
	}
	opts.HoistInvariant = cfg.hoist
	if cfg.passes != nil {
		return comm.PipelineFor(opts, cfg.passes)
	}
	return comm.NewPipeline(opts), nil
}

func run(w io.Writer, cfg *config) error {
	var src, name string
	switch {
	case cfg.bench != "":
		b, err := programs.ByName(cfg.bench)
		if err != nil {
			return err
		}
		src, name = b.Source, b.Name
	default:
		data, err := os.ReadFile(cfg.file)
		if err != nil {
			return err
		}
		src, name = string(data), cfg.file
	}

	if cfg.vet {
		list := vet.Source(name, src)
		list.Text(w, true)
		if !list.Empty() {
			return fmt.Errorf("%s: vet reported %d findings", name, len(list.Findings))
		}
	}

	ast, perrs := zpl.ParseAll(src)
	if len(perrs) > 0 {
		// The recovering parser reports every syntax error, not just the
		// first; surface them all before giving up.
		var b strings.Builder
		for i, e := range perrs {
			if i > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s:%v", name, e)
		}
		return fmt.Errorf("%s", b.String())
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cfg.inline {
		prog = ir.Inline(prog)
	}
	pipeline, err := pipelineFor(cfg)
	if err != nil {
		return err
	}
	pipeline.Debug = true // catch an invalid plan at the pass that broke it
	plan, err := pipeline.Build(prog)
	if err != nil {
		return fmt.Errorf("internal error: invalid plan: %w", err)
	}
	opts := pipeline.Options()

	fmt.Fprintf(w, "program %s: %d arrays, %d regions, %d directions, %d procedures\n",
		prog.Name, len(prog.Arrays), len(prog.Regions), len(prog.Dirs), len(prog.Procs))
	if cfg.passes != nil {
		fmt.Fprintf(w, "passes %s: %d static communications", strings.Join(pipeline.Names(), ","), plan.StaticCount)
	} else {
		fmt.Fprintf(w, "optimization %s: %d static communications", opts, plan.StaticCount)
	}
	if opts.HoistInvariant {
		fmt.Fprintf(w, " (%d hoisted to loop preheaders)", plan.HoistedCount())
	}
	fmt.Fprint(w, "\n\n")

	if cfg.explain {
		explainTrace(w, plan.Trace)
	}

	if cfg.counts {
		if err := renderCounts(w, prog); err != nil {
			return err
		}
	}

	if cfg.dump {
		dumpBlocks(w, plan)
	}

	if cfg.predict {
		if err := renderPrediction(w, prog, plan, cfg); err != nil {
			return err
		}
	}
	return nil
}

// renderPrediction prints the closed-form communication forecast of the
// compiled plan: the whole-program totals and the per-transfer breakdown
// the static cost model derives from the block distribution and the
// machine library's primitive costs.
func renderPrediction(w io.Writer, prog *ir.Program, plan *comm.Plan, cfg *config) error {
	var m *machine.Machine
	switch cfg.mach {
	case "t3d":
		m = machine.T3D()
	case "paragon":
		m = machine.Paragon()
	default:
		return fmt.Errorf("unknown machine %q (have t3d, paragon)", cfg.mach)
	}
	alg, err := collective.ParseAlg(cfg.coll)
	if err != nil {
		return err
	}
	pred, err := cost.Predict(prog, plan, cost.Config{
		Machine: m, Library: cfg.lib, Procs: cfg.procs, Collective: alg,
	})
	if err != nil {
		if errors.Is(err, cost.ErrNotStatic) {
			fmt.Fprintf(w, "prediction: not statically predictable: %v\n", err)
			return nil
		}
		return err
	}
	fmt.Fprintf(w, "predicted communication on %s/%s, %d procs (%s mesh):\n",
		cfg.mach, cfg.lib, cfg.procs, pred.Mesh)
	fmt.Fprintf(w, "  %d messages, %d bytes, %d dynamic transfers, %d reductions\n",
		pred.Messages, pred.BytesSent, pred.DynamicTransfers, pred.Reductions)
	fmt.Fprintf(w, "  critical-path comm overhead %v (reductions contribute up to %v per proc)\n",
		pred.CommTime(), pred.ReductionComm)
	if pred.Reductions > 0 && pred.Collective != collective.Auto {
		how := "selected by cost over star, tree, butterfly, twolevel"
		if alg != collective.Auto {
			how = "forced by -collective"
		}
		fmt.Fprintf(w, "  reductions run the %s algorithm (%s)\n", pred.Collective, how)
	}
	fmt.Fprintln(w)
	t := &report.Table{
		Title:   "per-transfer forecast",
		Headers: []string{"site", "transfer", "hoisted", "executions", "messages", "bytes", "comm (all procs)"},
	}
	for _, s := range pred.Sites {
		t.AddRow(fmt.Sprintf("%d:%d", s.Pos.Line, s.Pos.Col), s.Label,
			s.Hoisted, s.Executions, s.Messages, s.Bytes, s.Comm.String())
	}
	t.Render(w)
	return nil
}

// explainTrace renders the per-pass diff of the build: what each stage
// emitted, dropped, merged and moved, and the running static count.
func explainTrace(w io.Writer, tr *comm.Trace) {
	t := &report.Table{
		Title:   "per-pass pipeline trace",
		Headers: []string{"pass", "static in", "static out", "emitted", "dropped", "merged", "moved"},
	}
	for _, pt := range tr.Passes {
		t.AddRow(pt.Pass, pt.Before, pt.After, pt.Emitted, pt.Dropped, pt.Merged, pt.Moved)
	}
	t.Render(w)
	fmt.Fprintf(w, "pipeline: %s\n\n", tr)
}

// renderCounts prints the per-level static count table. The baseline, rr,
// cc and pl rows all come from ONE full-pipeline trace (each stage's
// output count is exactly that level's static count); only the
// alternative combining heuristic needs a second build.
func renderCounts(w io.Writer, prog *ir.Program) error {
	plan, err := comm.NewPipeline(comm.PL()).Build(prog)
	if err != nil {
		return err
	}
	tr := plan.Trace
	maxlat, err := comm.NewPipeline(comm.PLMaxLatency()).Build(prog)
	if err != nil {
		return err
	}
	byLevel := map[string]int{
		"baseline":  tr.ByName("emit").After,
		"rr":        tr.ByName("rr").After,
		"cc":        tr.ByName("cc").After,
		"pl":        tr.ByName("pl").After,
		"pl-maxlat": maxlat.StaticCount,
	}
	t := &report.Table{
		Title:   "static communication counts by optimization level",
		Headers: []string{"level", "static count", "% of baseline"},
	}
	base := byLevel["baseline"]
	for _, lv := range []string{"baseline", "rr", "cc", "pl", "pl-maxlat"} {
		pctS := "n/a"
		if base > 0 {
			pctS = fmt.Sprintf("%.0f%%", 100*float64(byLevel[lv])/float64(base))
		}
		t.AddRow(lv, byLevel[lv], pctS)
	}
	t.Render(w)
	return nil
}

func dumpBlocks(w io.Writer, plan *comm.Plan) {
	for bi, bp := range plan.Blocks {
		if len(bp.Transfers) == 0 {
			continue
		}
		fmt.Fprintf(w, "basic block %d (%d statements):\n", bi, len(bp.Stmts))
		for _, tr := range bp.Transfers {
			items := ""
			for i, a := range tr.Items {
				if i > 0 {
					items += ","
				}
				items += a.Name
			}
			fmt.Fprintf(w, "  transfer %-24s offset %-10v DR@%-3d SR@%-3d DN@%-3d SV@%-3d\n",
				items, tr.Offset, tr.DRPos, tr.SRPos, tr.DNPos, tr.SVPos)
		}
	}
}
