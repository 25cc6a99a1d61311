// Command icpp97 regenerates the figures and tables of Choi & Snyder,
// "Quantifying the Effects of Communication Optimizations" (ICPP 1997) on
// the simulated machines.
//
// Usage:
//
//	icpp97                 # everything
//	icpp97 -exp fig10a     # one figure or table
//	icpp97 -procs 16       # a different partition size
//	icpp97 -quick          # reduced problem sizes
//	icpp97 -exp profile    # per-callsite "where did the time go" appendix
//	icpp97 -exp critpath   # exact critical-path decomposition per experiment
//	icpp97 -exp rdma       # re-run the optimization ladder on the RDMA model
//	icpp97 -trace-dir traces -exp table1 -quick   # Perfetto timelines
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"commopt/internal/experiments"
	"commopt/internal/hostprof"
	"commopt/internal/report"
)

func main() {
	// Batch workload: every experiment cell builds a complete simulated
	// machine (up to 4096 processors of compiled kernels, schedules and
	// fields), runs it, and discards it. Under the default GC target the
	// collector re-walks that live world several times per cell; relaxing
	// the target trades a few tens of MB of peak heap at quick sizes for
	// a materially faster sweep. An explicit GOGC always wins.
	if target, ok := defaultGCPercent(os.Getenv("GOGC"), 300); ok {
		debug.SetGCPercent(target)
	}
	exp := flag.String("exp", "all", "which experiment to run: all, fig3, fig5, fig6, fig7, fig8, fig9, fig10a, fig10b, fig11, fig12, table1..table4, scaling, scalinglaw, collective, profile, predict, critpath, rdma")
	procs := flag.Int("procs", 64, "processors in the simulated partition")
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	workers := flag.Int("workers", 0, "benchmark×experiment cells simulated concurrently (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace-event JSON timeline per benchmark×experiment run into `dir`")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile to `file` on exit")
	flag.Parse()

	stopProfiles, err := hostprof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp97:", err)
		os.Exit(1)
	}

	r := experiments.NewRunner(*procs)
	r.Quick = *quick
	r.Workers = *workers
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "icpp97:", err)
			os.Exit(1)
		}
		r.TraceDir = *traceDir
	}
	err = run(os.Stdout, *exp, r)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp97:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, r *experiments.Runner) error {
	table := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
	switch exp {
	case "all":
		return experiments.RunAll(w, r)
	case "fig3":
		experiments.Fig3().Render(w)
	case "fig5":
		experiments.Fig5().Render(w)
	case "fig6":
		for _, s := range experiments.Fig6() {
			s.Render(w)
		}
	case "fig7":
		experiments.Fig7().Render(w)
	case "fig8":
		return table(experiments.Fig8(r))
	case "fig9":
		experiments.Fig9().Render(w)
	case "fig10a":
		return table(experiments.Fig10a(r))
	case "fig10b":
		return table(experiments.Fig10b(r))
	case "fig11":
		return table(experiments.Fig11(r))
	case "fig12":
		return table(experiments.Fig12(r))
	case "scaling":
		for _, name := range experiments.BenchNames() {
			t, err := experiments.Scaling(r, name, experiments.DefaultScalingProcs)
			if err != nil {
				return err
			}
			t.Render(w)
		}
	case "scalinglaw":
		return table(experiments.ScalingLaw(r, "simple", experiments.DefaultScalingLawProcs))
	case "collective":
		return table(experiments.CollectiveTable(r, "simple", experiments.DefaultCollectiveProcs))
	case "profile":
		// Opt-in only: the profile appendix is never part of "all", so the
		// figure and table outputs stay byte-identical with and without
		// observability built in.
		return experiments.RunProfiles(w, r)
	case "critpath":
		// Opt-in only, like profile: the decomposition is recorded by
		// instrumented runs cached apart from the figures' cells, and it
		// enforces its own acceptance gate (comm-bound path time must
		// shrink monotonically across the pvm ladder on >= 3 of the 4
		// benchmarks).
		return experiments.RunCritpath(w, r)
	case "rdma":
		// Opt-in only, like profile: the RDMA re-run is the extension
		// experiment, not one of the paper's figures, so "all" stays
		// byte-identical.
		return experiments.RunRDMA(w, r)
	case "predict":
		// Opt-in only, like profile: predicted-vs-measured is a validation
		// appendix, not one of the paper's figures, so "all" stays
		// byte-identical.
		return table(experiments.PredictTable(r))
	case "table1", "table2", "table3", "table4":
		idx := int(exp[5] - '1')
		return table(experiments.AppendixTable(r, experiments.BenchNames()[idx]))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
