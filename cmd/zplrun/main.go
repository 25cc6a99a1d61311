// Command zplrun executes a ZPL program on a simulated parallel machine
// and reports its output, simulated execution time and communication
// statistics, with optional observability output: a Chrome trace-event
// timeline of every virtual processor, a per-callsite communication
// profile, and a metrics registry.
//
// Usage:
//
//	zplrun [-machine t3d|paragon] [-lib pvm|shmem|csend|isend|hsend]
//	       [-procs N] [-O level] [-set name=value]...
//	       [-collective auto|star|tree|butterfly|twolevel]
//	       [-sched-workers N]
//	       [-trace out.json] [-profile] [-metrics] [-metrics-json out.json]
//	       [-critpath] [-cpuprofile out.prof] [-memprofile out.prof]
//	       file.zpl
//	zplrun -bench swm -procs 64 -O pl -lib shmem
//	zplrun -bench tomcatv -O pl -trace tomcatv.trace.json   # open in Perfetto
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/grid"
	"commopt/internal/hostprof"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/report"
	"commopt/internal/rt"
	"commopt/internal/trace"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

type configFlags map[string]float64

func (c configFlags) String() string { return fmt.Sprint(map[string]float64(c)) }

func (c configFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", v)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	c[name] = f
	return nil
}

// options collects everything one zplrun invocation needs.
type options struct {
	mach        string
	lib         string
	procs       int
	level       string
	bench       string
	coll        string // allreduce algorithm (auto = cost-model selection)
	cfg         configFlags
	tracePath   string // write Chrome trace-event JSON here ("" = off)
	critpath    bool   // record the happens-before DAG and print the critical path
	profile     bool   // print the per-callsite communication profile
	metrics     bool   // print the metrics registry as text
	metricsJSON string // write the metrics registry as JSON here ("" = off)
	schedWork   int    // M:N scheduler worker-pool size (0 = GOMAXPROCS)
	cpuProfile  string // write a host CPU profile of the run here ("" = off)
	memProfile  string // write a host allocation profile here ("" = off)
	args        []string
}

func main() {
	o := options{cfg: configFlags{}}
	flag.StringVar(&o.mach, "machine", "t3d", "simulated machine: t3d or paragon")
	flag.StringVar(&o.lib, "lib", "pvm", "communication library binding")
	flag.IntVar(&o.procs, "procs", 64, fmt.Sprintf("virtual processor count (1..%d)", grid.MaxProcs))
	flag.StringVar(&o.level, "O", "pl", "optimization level: baseline, rr, cc, pl, pl-maxlat")
	flag.StringVar(&o.coll, "collective", "auto", "allreduce algorithm: auto, star, tree, butterfly, twolevel (auto = cheapest eligible under the cost model)")
	flag.StringVar(&o.bench, "bench", "", "run a bundled benchmark instead of a file")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON timeline (virtual time) to `file`")
	flag.BoolVar(&o.critpath, "critpath", false, "record the happens-before DAG and print the critical-path analysis (every nanosecond attributed to a statement, callsite or hop)")
	flag.BoolVar(&o.profile, "profile", false, "print the per-callsite communication profile")
	flag.BoolVar(&o.metrics, "metrics", false, "print the run's metrics registry (counters and histograms)")
	flag.StringVar(&o.metricsJSON, "metrics-json", "", "write the metrics registry as JSON to `file`")
	flag.IntVar(&o.schedWork, "sched-workers", 0, "M:N scheduler worker-pool size (0 = GOMAXPROCS); results are identical at any setting")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the simulator itself (host time, not virtual) to `file`")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the simulator itself to `file` after the run")
	flag.Var(o.cfg, "set", "override a config variable, e.g. -set n=64 (repeatable)")
	flag.Parse()
	o.args = flag.Args()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "zplrun:", err)
		os.Exit(1)
	}
}

func optionsByName(name string) (comm.Options, error) {
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
	return comm.Options{}, fmt.Errorf("unknown optimization level %q", name)
}

func run(w io.Writer, o options) error {
	var src, name string
	switch {
	case o.bench != "":
		b, err := programs.ByName(o.bench)
		if err != nil {
			return err
		}
		src, name = b.Source, b.Name
	case len(o.args) == 1:
		data, err := os.ReadFile(o.args[0])
		if err != nil {
			return err
		}
		src, name = string(data), o.args[0]
	default:
		return fmt.Errorf("usage: zplrun [flags] file.zpl (or -bench name)")
	}

	ast, err := zpl.Parse(src)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	opts, err := optionsByName(o.level)
	if err != nil {
		return err
	}
	mach, err := machine.ByName(o.mach)
	if err != nil {
		return err
	}
	if o.coll == "" {
		o.coll = "auto" // zero options value (tests construct options directly)
	}
	alg, err := collective.ParseAlg(o.coll)
	if err != nil {
		return err
	}
	plan := comm.BuildPlan(prog, opts)
	cfg := rt.Config{
		Machine:      mach,
		Library:      o.lib,
		Procs:        o.procs,
		Collective:   alg,
		ConfigVars:   o.cfg,
		Profile:      o.profile,
		Metrics:      o.metrics || o.metricsJSON != "",
		SchedWorkers: o.schedWork,
	}
	var rec *trace.Recorder
	if o.tracePath != "" {
		rec = trace.NewRecorder()
		cfg.Trace = rec
	}
	var cpr *critpath.Recorder
	if o.critpath {
		cpr = critpath.NewRecorder()
		cfg.Critpath = cpr
	}
	stopProfiles, err := hostprof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	res, err := rt.Run(prog, plan, cfg)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	if res.Output != "" {
		fmt.Fprint(w, res.Output)
	}
	fmt.Fprintf(w, "-- %s on %d-node %s (%s), optimization %s\n", prog.Name, o.procs, mach.Name, o.lib, opts)
	fmt.Fprintf(w, "-- execution time   %.6f s (simulated)\n", res.ExecTime.Seconds())
	fmt.Fprintf(w, "-- communications   %d static, %d dynamic (per processor)\n", plan.StaticCount, res.DynamicTransfers)
	fmt.Fprintf(w, "-- messages         %d (transfers + reduction hops), %.1f KB total, %d reductions",
		res.Messages, float64(res.BytesSent)/1024, res.Reductions)
	if res.Reductions > 0 && res.Collective != collective.Auto {
		fmt.Fprintf(w, " via %s", res.Collective)
	}
	fmt.Fprintln(w)
	bd := res.Breakdown
	fmt.Fprintf(w, "-- critical path    compute %.1f%%, comm overhead %.1f%%, waiting %.1f%%\n",
		100*float64(bd.Compute)/float64(bd.Total()),
		100*float64(bd.Comm)/float64(bd.Total()),
		100*float64(bd.Wait)/float64(bd.Total()))

	if cpr != nil {
		if err := critpathReport(w, res, cpr); err != nil {
			return err
		}
	}
	if o.profile {
		fmt.Fprintln(w)
		profileTable(res).Render(w)
	}
	if o.metrics {
		fmt.Fprintln(w)
		res.Metrics.Text(w)
	}
	if o.metricsJSON != "" {
		f, err := os.Create(o.metricsJSON)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := res.Metrics.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if rec != nil {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := trace.WriteChrome(f, rec); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// critpathReport analyzes the recorded happens-before DAG and prints the
// critical path: the summary split, the top attribution contexts and the
// longest single-processor bounding chains. The analysis is exact — the
// printed durations sum to the simulated execution time, and the report
// double-checks that against the Result before printing anything.
func critpathReport(w io.Writer, res *rt.Result, cpr *critpath.Recorder) error {
	p, err := critpath.Analyze(cpr)
	if err != nil {
		return err
	}
	if p.Finish != res.ExecTime {
		return fmt.Errorf("critpath: path finish %v disagrees with execution time %v", p.Finish, res.ExecTime)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "-- critical path (exact): %.6f s ends on proc %d; %d hops across %d procs\n",
		p.Finish.Seconds(), p.CritRank, p.Hops, p.Procs)
	fmt.Fprintf(w, "--   compute %.6f s (%.1f%%), comm overhead %.6f s (%.1f%%), waiting %.6f s (%.1f%%)\n",
		p.Compute.Seconds(), 100*float64(p.Compute)/float64(p.Finish),
		p.Comm.Seconds(), 100*float64(p.Comm)/float64(p.Finish),
		p.Wait.Seconds(), 100*float64(p.Wait)/float64(p.Finish))

	const topK = 10
	contribs := p.Contributions()
	t := &report.Table{
		Title:   "Critical-path contributors (virtual time on the bounding chain)",
		Headers: []string{"kind", "context", "site", "ms", "% of path", "pieces"},
	}
	for i, c := range contribs {
		if i >= topK {
			break
		}
		kind := c.Kind.String()
		if c.Kind == critpath.Wait {
			kind = "wait " + c.Reason.String()
		}
		t.AddRow(kind, c.Label, c.Site,
			fmt.Sprintf("%.3f", float64(c.Dur)/1e6),
			fmt.Sprintf("%.1f", 100*float64(c.Dur)/float64(p.Finish)),
			c.Pieces)
	}
	fmt.Fprintln(w)
	t.Render(w)
	if len(contribs) > topK {
		var rest vtime.Duration
		for _, c := range contribs[topK:] {
			rest += c.Dur
		}
		fmt.Fprintf(w, "   (+ %d more contexts, %.3f ms)\n", len(contribs)-topK, float64(rest)/1e6)
	}

	ct := &report.Table{
		Title:   "Longest bounding chains (before a message edge moves the path)",
		Headers: []string{"proc", "from ms", "to ms", "dur ms", "segments"},
	}
	for _, ch := range p.TopChains(5) {
		ct.AddRow(ch.Rank,
			fmt.Sprintf("%.3f", float64(ch.Start)/1e6),
			fmt.Sprintf("%.3f", float64(ch.End)/1e6),
			fmt.Sprintf("%.3f", float64(ch.Dur)/1e6),
			ch.Segs)
	}
	fmt.Fprintln(w)
	ct.Render(w)
	return nil
}

// profileTable renders the per-callsite communication profile: one row
// per plan transfer, attributed to the source position of its earliest
// use, with any callsites folded in by rr/cc listed alongside.
func profileTable(res *rt.Result) *report.Table {
	t := &report.Table{
		Title:   "Per-callsite communication profile (all processors, virtual time)",
		Headers: []string{"callsite", "transfer", "hoisted", "SR calls", "messages", "KB", "comm ms", "wait ms", "also covers"},
	}
	for _, row := range res.Profile {
		hoisted := ""
		if row.Hoisted {
			hoisted = "yes"
		}
		covers := make([]string, 0, len(row.Covers))
		for _, p := range row.Covers {
			covers = append(covers, p.String())
		}
		t.AddRow(row.Pos.String(), row.Label, hoisted, row.Calls, row.Messages,
			fmt.Sprintf("%.1f", float64(row.Bytes)/1024),
			fmt.Sprintf("%.3f", float64(row.Comm)/1e6),
			fmt.Sprintf("%.3f", float64(row.Wait)/1e6),
			strings.Join(covers, " "))
	}
	return t
}
