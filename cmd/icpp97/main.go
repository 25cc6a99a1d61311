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
	"slices"
	"strings"

	"commopt/internal/experiments"
	"commopt/internal/grid"
	"commopt/internal/hostprof"
)

// options collects everything one icpp97 invocation needs.
type options struct {
	exp        string
	procs      int
	quick      bool
	workers    int
	traceDir   string
	cpuprofile string
	memprofile string
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp97:", err)
		os.Exit(2)
	}
	// Batch workload: every experiment cell builds a complete simulated
	// machine (up to 4096 processors of compiled kernels, schedules and
	// fields), runs it, and discards it. Under the default GC target the
	// collector re-walks that live world several times per cell; relaxing
	// the target trades a few tens of MB of peak heap at quick sizes for
	// a materially faster sweep. An explicit GOGC always wins.
	if target, ok := defaultGCPercent(os.Getenv("GOGC"), 300); ok {
		debug.SetGCPercent(target)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "icpp97:", err)
		os.Exit(1)
	}
}

// parseArgs parses the command line, returning an error (never exiting)
// for unknown flags, malformed values, a partition the block distribution
// cannot hold and an unknown experiment, before any cell runs. It returns
// flag.ErrHelp when usage was requested.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("icpp97", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are reported by the caller, once
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: icpp97 [flags]")
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	fs.StringVar(&o.exp, "exp", "all", "which experiment to run: "+strings.Join(experiments.Keys(), ", "))
	fs.IntVar(&o.procs, "procs", 64, "processors in the simulated partition")
	fs.BoolVar(&o.quick, "quick", false, "use reduced problem sizes")
	fs.IntVar(&o.workers, "workers", 0, "benchmark×experiment cells simulated concurrently (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write a Chrome trace-event JSON timeline per benchmark×experiment run into `dir`")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to `file` on exit")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, err := grid.MeshFor(o.procs); err != nil {
		return options{}, fmt.Errorf("-procs: %w", err)
	}
	if !slices.Contains(experiments.Keys(), o.exp) {
		return options{}, fmt.Errorf("unknown experiment %q", o.exp)
	}
	return o, nil
}

func run(w io.Writer, o options) error {
	stopProfiles, err := hostprof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	r := experiments.NewRunner(o.procs)
	r.Quick, r.Workers = o.quick, o.workers
	if o.traceDir != "" {
		err = os.MkdirAll(o.traceDir, 0o755)
		r.TraceDir = o.traceDir
	}
	if err == nil {
		err = experiments.Render(w, r, o.exp)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	return err
}
