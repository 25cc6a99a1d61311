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
	"strings"

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
	exp := flag.String("exp", "all", "which experiment to run: "+strings.Join(expKeys(), ", "))
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

// experiment is one -exp key: the one table it renders, or how it writes
// its output.
type experiment struct {
	key   string
	table func(*experiments.Runner) (*report.Table, error)
	write func(io.Writer, *experiments.Runner) error
}

// exps is the -exp table, in the order the usage lists it.
var exps = []experiment{
	{key: "all", write: experiments.RunAll},
	{key: "fig3", table: static(experiments.Fig3)},
	{key: "fig5", table: static(experiments.Fig5)},
	{key: "fig6", write: func(w io.Writer, _ *experiments.Runner) error {
		for _, s := range experiments.Fig6() {
			s.Render(w)
		}
		return nil
	}},
	{key: "fig7", table: static(experiments.Fig7)},
	{key: "fig8", table: experiments.Fig8},
	{key: "fig9", table: static(experiments.Fig9)},
	{key: "fig10a", table: experiments.Fig10a},
	{key: "fig10b", table: experiments.Fig10b},
	{key: "fig11", table: experiments.Fig11},
	{key: "fig12", table: experiments.Fig12},
	{key: "table1", table: appendix(0)},
	{key: "table2", table: appendix(1)},
	{key: "table3", table: appendix(2)},
	{key: "table4", table: appendix(3)},
	{key: "scaling", write: func(w io.Writer, r *experiments.Runner) error {
		for _, name := range experiments.BenchNames() {
			t, err := experiments.Scaling(r, name, experiments.DefaultScalingProcs)
			if err != nil {
				return err
			}
			t.Render(w)
		}
		return nil
	}},
	{key: "scalinglaw", table: func(r *experiments.Runner) (*report.Table, error) {
		return experiments.ScalingLaw(r, "simple", experiments.DefaultScalingLawProcs)
	}},
	{key: "collective", table: func(r *experiments.Runner) (*report.Table, error) {
		return experiments.CollectiveTable(r, "simple", experiments.DefaultCollectiveProcs)
	}},
	// profile, predict, critpath and rdma are opt-in appendices, never part
	// of "all", so the figure and table outputs stay byte-identical with
	// and without them. critpath enforces its own acceptance gate
	// (comm-bound path time must shrink monotonically across the pvm
	// ladder on >= 3 of the 4 benchmarks); rdma re-runs the ladder on the
	// extension machine.
	{key: "profile", write: experiments.RunProfiles},
	{key: "predict", table: experiments.PredictTable},
	{key: "critpath", write: experiments.RunCritpath},
	{key: "rdma", write: experiments.RunRDMA},
}

// static adapts a table that needs no runs.
func static(t func() *report.Table) func(*experiments.Runner) (*report.Table, error) {
	return func(*experiments.Runner) (*report.Table, error) {
		return t(), nil
	}
}

// appendix is Table i+1, the appendix table of the i-th benchmark.
func appendix(i int) func(*experiments.Runner) (*report.Table, error) {
	return func(r *experiments.Runner) (*report.Table, error) {
		return experiments.AppendixTable(r, experiments.BenchNames()[i])
	}
}

// expKeys returns the -exp keys in table order.
func expKeys() []string {
	keys := make([]string, len(exps))
	for i, e := range exps {
		keys[i] = e.key
	}
	return keys
}

func run(w io.Writer, exp string, r *experiments.Runner) error {
	for _, e := range exps {
		if e.key != exp {
			continue
		}
		if e.write != nil {
			return e.write(w, r)
		}
		t, err := e.table(r)
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}
