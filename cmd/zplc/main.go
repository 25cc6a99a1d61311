// Command zplc compiles a ZPL program and reports its communication plan:
// the transfers the optimizer generates per basic block, their IRONMAN
// call placements, the static communication counts under each
// optimization level, and the per-pass pipeline trace.
//
// Usage:
//
//	zplc [-O baseline|rr|cc|pl|pl-maxlat|pl+hoist] [-dump] [-counts] [-explain] file.zpl
//	zplc -bench tomcatv -counts         # compile a bundled benchmark
//	zplc -bench tomcatv -explain        # per-pass trace
//	zplc -bench simple -predict -procs 64 -lib shmem
//	                                    # closed-form communication forecast:
//	                                    # one row per level, then every
//	                                    # transfer of the selected -O level
//
// The whole -predict binding (machine, library, processor count and
// collective) is resolved first, and the output is written only once
// every step has succeeded, so a failing run prints nothing.
package main

import (
	"bytes"
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
	"commopt/internal/programs"
	"commopt/internal/report"
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
	predict bool
	procs   int
	mach    string
	lib     string
	coll    string // allreduce algorithm for -predict
	bench   string
	inline  bool
	file    string // empty when bench is set
}

// parseArgs parses the command line, returning an error (never exiting or
// panicking) for unknown flags, unknown optimization levels or missing
// inputs, so the caller can report it cleanly. It returns flag.ErrHelp
// when usage was requested.
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
	fs.StringVar(&cfg.level, "O", "pl", "optimization level: "+strings.Join(comm.LevelNames(), ", "))
	fs.BoolVar(&cfg.dump, "dump", false, "dump every basic block's transfers and call placements")
	fs.BoolVar(&cfg.counts, "counts", false, "print static counts under every optimization level")
	fs.BoolVar(&cfg.explain, "explain", false, "print the per-pass pipeline trace (what each pass emitted, dropped, merged, moved)")
	fs.BoolVar(&cfg.predict, "predict", false, "print the closed-form communication forecast: per level, and per transfer at the selected -O level")
	fs.IntVar(&cfg.procs, "procs", 64, "processor count for -predict")
	fs.StringVar(&cfg.mach, "machine", "t3d", "machine model for -predict: t3d, paragon or rdma")
	fs.StringVar(&cfg.lib, "lib", "pvm", "library binding for -predict (e.g. pvm, shmem, csend)")
	fs.StringVar(&cfg.coll, "collective", "auto", "allreduce algorithm for -predict: auto, star, tree, butterfly, twolevel")
	fs.StringVar(&cfg.bench, "bench", "", "compile a bundled benchmark (tomcatv, swm, simple, sp) instead of a file")
	fs.BoolVar(&cfg.inline, "inline", false, "inline procedure calls before communication analysis (Section 4 extension)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := comm.OptionsByName(cfg.level); err != nil {
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

func run(w io.Writer, cfg *config) error {
	bind, err := cost.Bind(cfg.mach, cfg.lib, cfg.procs, cfg.coll)
	if err != nil {
		return err
	}
	var files []string
	if cfg.file != "" {
		files = []string{cfg.file}
	}
	ins, err := programs.Load(cfg.bench, files)
	if err != nil {
		return err
	}
	if len(ins) != 1 {
		return fmt.Errorf("usage: zplc [flags] file.zpl (or -bench name)")
	}
	_, prog, err := ir.Compile(ins[0].Name, ins[0].Source)
	if err != nil {
		return err
	}
	if cfg.inline {
		prog = ir.Inline(prog)
	}
	opts, err := comm.OptionsByName(cfg.level)
	if err != nil {
		return err
	}
	pipeline := comm.NewPipeline(opts)
	pipeline.Debug = true // catch an invalid plan at the pass that broke it
	plan, err := pipeline.Build(prog)
	if err != nil {
		return fmt.Errorf("internal error: invalid plan: %w", err)
	}

	// Nothing reaches w unless every step succeeds.
	var out bytes.Buffer
	fmt.Fprintf(&out, "program %s: %d arrays, %d regions, %d directions, %d procedures\n",
		prog.Name, len(prog.Arrays), len(prog.Regions), len(prog.Dirs), len(prog.Procs))
	fmt.Fprintf(&out, "optimization %s: %d static communications", opts, plan.StaticCount)
	if opts.HoistInvariant {
		fmt.Fprintf(&out, " (%d hoisted to loop preheaders)", plan.HoistedCount())
	}
	fmt.Fprint(&out, "\n\n")

	if cfg.explain {
		explainTrace(&out, plan.Trace)
	}
	if cfg.counts {
		renderCounts(&out, prog)
	}
	if cfg.dump {
		dumpBlocks(&out, plan)
	}
	if cfg.predict {
		if err := renderPrediction(&out, prog, plan, cfg, bind); err != nil {
			return err
		}
	}
	_, err = w.Write(out.Bytes())
	return err
}

// renderPrediction prints the closed-form communication forecast: the
// plan's whole-program totals, one summary row per level of the -O table,
// and the plan's per-transfer breakdown, which the static cost model
// derives from the block distribution and the machine library's primitive
// costs.
func renderPrediction(w io.Writer, prog *ir.Program, plan *comm.Plan, cfg *config, bind cost.Config) error {
	pred, err := cost.Predict(prog, plan, bind)
	if errors.Is(err, cost.ErrNotStatic) {
		fmt.Fprintf(w, "prediction: not statically predictable: %v\n", err)
		return nil
	}
	if err != nil {
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
		if bind.Collective != collective.Auto {
			how = "forced by -collective"
		}
		fmt.Fprintf(w, "  reductions run the %s algorithm (%s)\n", pred.Collective, how)
	}
	fmt.Fprintln(w)

	levels := &report.Table{
		Title:   "predicted communication by optimization level",
		Headers: []string{"level", "static", "dynamic", "messages", "bytes", "reductions", "comm (critical path)"},
	}
	for _, lv := range comm.Levels() {
		lplan := comm.BuildPlan(prog, lv.Opts)
		lpred, err := cost.Predict(prog, lplan, bind)
		if err != nil {
			return fmt.Errorf("[%s] %w", lv.Name, err)
		}
		levels.AddRow(lv.Name, lplan.StaticCount, lpred.DynamicTransfers,
			lpred.Messages, lpred.BytesSent, lpred.Reductions, lpred.CommTime().String())
	}
	levels.Render(w)

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

// renderCounts prints the static count of every level of the -O table.
func renderCounts(w io.Writer, prog *ir.Program) {
	t := &report.Table{
		Title:   "static communication counts by optimization level",
		Headers: []string{"level", "static count", "% of baseline"},
	}
	var base int
	for i, lv := range comm.Levels() {
		n := comm.BuildPlan(prog, lv.Opts).StaticCount
		if i == 0 {
			base = n
		}
		pct := "n/a"
		if base > 0 {
			pct = fmt.Sprintf("%.0f%%", 100*float64(n)/float64(base))
		}
		t.AddRow(lv.Name, n, pct)
	}
	t.Render(w)
}

func dumpBlocks(w io.Writer, plan *comm.Plan) {
	for bi, bp := range plan.Blocks {
		if len(bp.Transfers) == 0 {
			continue
		}
		fmt.Fprintf(w, "basic block %d (%d statements):\n", bi, len(bp.Stmts))
		for _, tr := range bp.Transfers {
			fmt.Fprintf(w, "  transfer %-24s offset %-10v DR@%-3d SR@%-3d DN@%-3d SV@%-3d\n",
				tr.Arrays(), tr.Offset, tr.DRPos, tr.SRPos, tr.DNPos, tr.SVPos)
		}
	}
}
