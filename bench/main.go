// Command bench is the repository's host-time benchmark: four workloads
// of the reproduction, timed end to end with all observability off,
// checked against references the runs under test did not produce, and in
// a separate traced run decomposed layer by layer from outside. README.md
// defines every metric and workload; BENCHMARK.json is the contract a
// driver runs it under.
//
//	go run ./bench -workload all -seed 1997
//	go run ./bench -workload wavefront_sync -trace 1
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart is when this process began; setup_s counts from here.
var processStart = time.Now()

// setupSamples is how many fresh processes set a workload up in one run;
// setup_s is their median.
const setupSamples = 3

// defaultSeconds is the timed section's length; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 18.0

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	smoke     bool
	setupOnly bool
	setups    int // set-up samples wanted; beyond the first each is a child process
	jsonPath  string
	outDir    string
}

// envInfo records where a result was measured.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name      string          `json:"name"`
	Sizes     []string        `json:"sizes"` // the runs of one body, as drawn
	Reps      int             `json:"reps"`
	Ops       int             `json:"ops"`
	FailedOps int             `json:"failed_ops"`
	OpsPerRep int             `json:"ops_per_rep"`
	SimS      float64         `json:"sim_s"` // simulated seconds per repetition
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	Raw       map[string]stat `json:"raw"`           // the times of Metrics as measured, before normalisation
	Slowdown  stat            `json:"host_slowdown"` // the yardstick's wall time over its nominal, around each repetition
	Layers    map[string]stat `json:"layers,omitempty"`
}

type resultFile struct {
	Env       envInfo          `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1997, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed section; repetitions run until it is over")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced repetition and prints the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "miniature sizes and one repetition (the tier-1 test's mode)")
	fs.StringVar(&o.jsonPath, "json", "", "write the full result to this file, for -compare")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace.<workload>.json")
	fs.BoolVar(&compare, "compare", false, "compare two result files: bench -compare base.json new.json")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print setup_s and exit (the harness runs itself this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	o.setups = setupSamples
	if o.smoke {
		o.setups = 1
	}
	pinRuntime()
	file := resultFile{Env: environment(o)}
	if o.workload == "all" {
		for _, name := range workloadNames() {
			res, err := runChild(o, name, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			file.Workloads = append(file.Workloads, res.Workloads...)
		}
	} else {
		res, err := runWorkload(o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
			return 1
		}
		if o.setupOnly {
			return 0
		}
		file.Workloads = append(file.Workloads, *res)
		printContractLine(stdout, o, res)
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, file); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return exitCode(file.Workloads)
}

// exitCode is 1 when any check of any workload failed.
func exitCode(results []workloadResult) int {
	for _, r := range results {
		if r.FailedOps > 0 {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// pinRuntime fixes the process model whatever the environment says: one
// generator process on min(nproc, 4) threads, GOGC 100, no memory limit.
func pinRuntime() {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

func environment(o options) envInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// childArgs are the flags a child of the harness inherits.
func childArgs(o options, workload string) []string {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// runChild runs one workload in a fresh process of the harness itself, so
// peak memory and GC state are the workload's own, and reads its result
// back from a file.
func runChild(o options, workload string, stdout, stderr io.Writer) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, "result."+workload+".json")
	os.Remove(path) // a stale file must not stand in for a child that died
	cmd := exec.Command(self, append(childArgs(o, workload), "-trace", fmt.Sprint(o.trace), "-json", path)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	return &file, nil
}

// setupChild sets the workload up in a fresh process and returns the
// seconds it took from process start, normalised and as measured.
func setupChild(o options) (setup, raw float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	out, err := exec.Command(self, append(childArgs(o, o.workload), "-setup-only")...).Output()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	var line struct {
		SetupS float64 `json:"setup_s"`
		RawS   float64 `json:"raw_s"`
	}
	if err := json.Unmarshal([]byte(lastLine(string(out))), &line); err != nil || line.SetupS <= 0 {
		return 0, 0, fmt.Errorf("set-up child printed %q", lastLine(string(out)))
	}
	return line.SetupS, line.RawS, nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// runWorkload measures one workload in this process: set-up (generate the
// inputs from the seed, compile them, one warm-up repetition, references),
// then timed repetitions of the body with all observability off, each
// followed by a reading of the yardstick, until o.seconds are over, then
// with -trace 1 the traced run.
func runWorkload(o options, stdout io.Writer) (*workloadResult, error) {
	w, err := newWorkload(o.workload, o.seed, o.smoke)
	if err != nil {
		return nil, err
	}
	c := &checker{}
	w.rep(nil, nil, nil) // warm-up: compiles the inputs, fills the runtime's pools
	// The high-water mark so far is the programs' own: the references the
	// harness is about to build, and the yardstick's buffers, would
	// otherwise dominate it.
	peakRSS := peakRSSMB()
	if err := w.prepare(c); err != nil {
		return nil, err
	}
	rawSetup := time.Since(processStart)
	// Set-up ends here. It is normalised like every other time, by one
	// reading of the yardstick at half the usual share; from now on the
	// yardstick is read after every repetition.
	yard, err := newYardstick(runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	w.lab().yard = yard
	slow, _ := yard.follow(rawSetup / 2).slowdown()
	rawSetups := []float64{rawSetup.Seconds()}
	setups := []float64{rawSetup.Seconds() / slow}
	if o.setupOnly {
		fmt.Fprintf(stdout, "{\"setup_s\": %v, \"raw_s\": %v}\n", setups[0], rawSetups[0])
		return nil, nil
	}
	setupOps := c.ops

	var reps []repCost
	res := &workloadResult{Name: o.workload, Sizes: w.sizes()}
	// Repetitions run while the next one, if it takes as long as the last,
	// still ends inside the timed section.
	var last time.Duration
	for start := time.Now(); res.Reps == 0 || (!o.smoke && (time.Since(start)+last).Seconds() < o.seconds); res.Reps++ {
		before, began := c.ops, time.Now()
		rep := w.lab().followed(nil, w.rep(c, nil, nil))
		reps = append(reps, rep)
		res.OpsPerRep, res.SimS = c.ops-before, rep.sim.Seconds()
		last = time.Since(began)
	}
	perRep := func(f func(repCost) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	walls, cpus, slowdowns := normalised(reps)
	for len(setups) < o.setups {
		s, raw, err := setupChild(o)
		if err != nil {
			return nil, err
		}
		setups, rawSetups = append(setups, s), append(rawSetups, raw)
	}
	res.Metrics = map[string]stat{
		"wall_s":      newStat("s", walls...),
		"cpu_s":       newStat("s", cpus...),
		"alloc_mb":    newStat("MB", perRep(func(r repCost) float64 { return float64(r.alloc) / (1 << 20) })...),
		"peak_rss_mb": newStat("MB", peakRSS),
		"setup_s":     newStat("s", setups...),
	}
	res.Raw = map[string]stat{
		"wall_s":  newStat("s", perRep(func(r repCost) float64 { return r.wall.Seconds() })...),
		"cpu_s":   newStat("s", perRep(func(r repCost) float64 { return r.cpu.Seconds() })...),
		"setup_s": newStat("s", rawSetups...),
	}
	res.Slowdown = newStat("ratio", slowdowns...)

	var tr *tracer
	var tracePath string
	if o.trace == 1 {
		base := untraced{
			median(walls), median(cpus), res.Slowdown.Value,
			median(perRep(func(r repCost) float64 { return float64(r.mallocs) })),
			median(perRep(func(r repCost) float64 { return float64(r.gcs) })),
		}
		if res.Layers, tr, err = tracedRun(o.workload, w, c, base); err != nil {
			return nil, err
		}
		if tracePath, err = tr.writeFile(o.outDir); err != nil {
			return nil, err
		}
	}
	res.Ops, res.FailedOps, res.Failures = c.ops, c.failed, c.failures

	fmt.Fprintf(stdout, "workload %s  seed %d  repetitions %d  gomaxprocs %d\n", res.Name, o.seed, res.Reps, runtime.GOMAXPROCS(0))
	printStats(stdout, endToEnd, res.Metrics)
	fmt.Fprintf(stdout, "  times are over the host's slowdown, median %.3f (q1=%.3f q3=%.3f); as measured: wall %.6g s, cpu %.6g s, set-up %.6g s\n",
		res.Slowdown.Value, res.Slowdown.Q1, res.Slowdown.Q3, res.Raw["wall_s"].Value, res.Raw["cpu_s"].Value, res.Raw["setup_s"].Value)
	fmt.Fprintf(stdout, "  %-34s %14.9f %-6s exact, per repetition\n", "sim_s", res.SimS, "sim_s")
	fmt.Fprintf(stdout, "  %-34s %14.6g %-6s ops=%d failed_ops=%d (%d at set-up, %d per repetition)\n",
		"fail_ratio", float64(res.FailedOps)/float64(res.Ops), "ratio", res.Ops, res.FailedOps, setupOps, res.OpsPerRep)
	var elems, nans int
	for _, ref := range w.lab().refs {
		elems += ref.elems
		nans += ref.nans
	}
	fmt.Fprintf(stdout, "  references hold %d array elements, %d of them NaN\n", elems, nans)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	if tr != nil {
		fmt.Fprintln(stdout, " per-layer metrics (traced run)")
		printStats(stdout, perLayer, res.Layers)
		fmt.Fprintln(stdout, " span ledger (self = span - children)")
		tr.printLedger(stdout)
		fmt.Fprintf(stdout, "  spans written to %s\n", tracePath)
	}
	return res, nil
}

// printContractLine prints the one JSON object a driver reads from the
// last line: the end-to-end metrics, or with -trace 1 the per-layer ones.
func printContractLine(stdout io.Writer, o options, res *workloadResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	stats := res.Metrics
	if o.trace == 1 {
		stats = res.Layers
	}
	metrics := map[string]value{}
	for name, s := range stats {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.FailedOps == 0, res.Ops, res.FailedOps, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(stdout, "%s\n", line)
}
