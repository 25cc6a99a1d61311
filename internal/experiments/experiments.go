// Package experiments regenerates every figure and table of the paper's
// evaluation section: the machine and binding tables (Figures 3 and 5),
// the exposed-overhead curves (Figure 6), the benchmark table (Figure 7),
// the communication-count reductions (Figures 8 and 11), the scaled
// execution times (Figures 10 and 12) and the per-benchmark result tables
// (Tables 1-4).
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/trace"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// Experiment is one row of Figure 9's key: an optimizer configuration
// paired with a communication library.
type Experiment struct {
	Key     string
	Label   string
	Options comm.Options
	Library string

	// Machine selects the simulated machine by machine.ByName key; empty
	// means the paper's default T3D. Only the rdma extension experiments
	// set it (rdma.go).
	Machine string
}

// Experiments returns the six experiments of Figure 9 in order.
func Experiments() []Experiment {
	return []Experiment{
		{Key: "baseline", Label: "message vectorization", Options: comm.Baseline(), Library: "pvm"},
		{Key: "rr", Label: "baseline with removing redundant communication", Options: comm.RR(), Library: "pvm"},
		{Key: "cc", Label: "rr with combining communication", Options: comm.CC(), Library: "pvm"},
		{Key: "pl", Label: "cc with pipelining", Options: comm.PL(), Library: "pvm"},
		{Key: "pl with shmem", Label: "pl using shmem_put", Options: comm.PL(), Library: "shmem"},
		{Key: "pl with max latency", Label: "pl with shmem, combining for maximum latency hiding", Options: comm.PLMaxLatency(), Library: "shmem"},
	}
}

// ExperimentByKey returns the named experiment, searching the paper's
// six rows and the rdma extension rows.
func ExperimentByKey(key string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Key == key {
			return e, nil
		}
	}
	for _, e := range RDMAExperiments() {
		if e.Key == key {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", key)
}

// Cell is one benchmark × experiment measurement (one row of the
// appendix tables).
type Cell struct {
	Static   int
	Dynamic  int
	Time     vtime.Duration
	Messages int
	Bytes    int64

	// Comm is the critical-path communication software overhead: the
	// largest per-processor Comm share of the breakdown. The predict
	// experiment compares it against the static predictor's forecast.
	Comm vtime.Duration
}

// Runner executes and caches benchmark runs on the simulated T3D.
// Independent cells may execute concurrently (see Workers and prefetch):
// every rt.Run owns its world and virtual time is deterministic, so the
// measured cells — and therefore every rendered figure and table — are
// byte-identical at any worker count.
type Runner struct {
	Procs int  // default 64
	Quick bool // use the reduced calibration sizes

	// Workers bounds how many benchmark×experiment cells execute
	// concurrently when a figure prefetches its inputs. Zero means
	// GOMAXPROCS; one disables concurrency entirely.
	Workers int

	// TraceDir, when non-empty, writes a Chrome trace-event JSON timeline
	// (virtual time, one row per processor) for every benchmark×experiment
	// run into the directory, named <bench>_<experiment>.trace.json.
	TraceDir string

	mu        sync.Mutex // guards the maps and compiled programs/plans
	programs  map[string]*compiled
	cells     map[string]*cellEntry
	profiles  map[string]profileEntry
	critpaths map[string]*critEntry
}

// cellEntry is one cell's compute-once slot. The once runs outside the
// Runner lock so independent cells can execute in parallel, while two
// requests for the same cell still share one run.
type cellEntry struct {
	once sync.Once
	cell Cell
	err  error
}

type compiled struct {
	bench programs.Benchmark
	prog  *ir.Program
	plans map[string]*comm.Plan
}

// NewRunner returns a Runner for the given processor count (64 if zero,
// the paper's partition size).
func NewRunner(procs int) *Runner {
	if procs == 0 {
		procs = 64
	}
	return &Runner{Procs: procs, programs: map[string]*compiled{}, cells: map[string]*cellEntry{}, profiles: map[string]profileEntry{}, critpaths: map[string]*critEntry{}}
}

// workers resolves the effective worker count.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// compiledFor parses and lowers one benchmark, cached. Callers must hold
// r.mu.
func (r *Runner) compiledFor(name string) (*compiled, error) {
	if c, ok := r.programs[name]; ok {
		return c, nil
	}
	bench, err := programs.ByName(name)
	if err != nil {
		return nil, err
	}
	ast, err := zpl.Parse(bench.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c := &compiled{bench: bench, prog: prog, plans: map[string]*comm.Plan{}}
	r.programs[name] = c
	return c, nil
}

// planFor returns the compiled program and plan for one benchmark under
// one experiment, building and caching either as needed.
func (r *Runner) planFor(benchName string, exp Experiment) (*compiled, *comm.Plan, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, err := r.compiledFor(benchName)
	if err != nil {
		return nil, nil, err
	}
	optKey := exp.Options.String()
	plan, ok := c.plans[optKey]
	if !ok {
		plan = comm.BuildPlan(c.prog, exp.Options)
		c.plans[optKey] = plan
	}
	return c, plan, nil
}

// Cell runs (or recalls) one benchmark under one experiment.
func (r *Runner) Cell(benchName, expKey string) (Cell, error) {
	r.mu.Lock()
	cacheKey := benchName + "/" + expKey
	e := r.cells[cacheKey]
	if e == nil {
		e = &cellEntry{}
		r.cells[cacheKey] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.cell, e.err = r.runCell(benchName, expKey) })
	return e.cell, e.err
}

// runCell executes one cell. Compilation and plan construction go through
// the Runner lock; the simulated run itself is lock-free, so cells
// prefetched by different workers execute truly in parallel.
func (r *Runner) runCell(benchName, expKey string) (Cell, error) {
	exp, err := ExperimentByKey(expKey)
	if err != nil {
		return Cell{}, err
	}
	c, plan, err := r.planFor(benchName, exp)
	if err != nil {
		return Cell{}, err
	}
	cfg := c.bench.PaperConfig
	if r.Quick {
		cfg = c.bench.CalibConfig
	}
	mach := machine.T3D()
	if exp.Machine != "" {
		if mach, err = machine.ByName(exp.Machine); err != nil {
			return Cell{}, err
		}
	}
	rtCfg := rt.Config{
		Machine:    mach,
		Library:    exp.Library,
		Procs:      r.Procs,
		ConfigVars: cfg,
	}
	if r.workers() > 1 {
		// Concurrent cells are independent simulations, so they scale
		// perfectly across cores; workers inside one world mostly wait on
		// each other's virtual times. One scheduler worker per cell lets
		// the process-wide step budget spend the host on cell-level
		// parallelism instead of intra-world contention.
		rtCfg.SchedWorkers = 1
	}
	var rec *trace.Recorder
	if r.TraceDir != "" {
		rec = trace.NewRecorder()
		rtCfg.Trace = rec
	}
	res, err := rt.Run(c.prog, plan, rtCfg)
	if err != nil {
		return Cell{}, fmt.Errorf("%s/%s: %w", benchName, expKey, err)
	}
	if rec != nil {
		if err := writeTraceFile(r.TraceDir, benchName, expKey, rec); err != nil {
			return Cell{}, err
		}
	}
	var maxComm vtime.Duration
	for _, bd := range res.PerProc {
		if bd.Comm > maxComm {
			maxComm = bd.Comm
		}
	}
	// The static count comes off the pipeline trace: the final pass's
	// output count, which Build also records as plan.StaticCount.
	return Cell{
		Static:   plan.Trace.Final(),
		Dynamic:  res.DynamicTransfers,
		Time:     res.ExecTime,
		Messages: res.Messages,
		Bytes:    res.BytesSent,
		Comm:     maxComm,
	}, nil
}

// prefetch computes the cross product of benchmarks × experiment keys on
// a worker pool, so a figure's later sequential Cell reads all hit the
// cache. Errors are not reported here: the figure re-requests each cell
// in its own deterministic order and surfaces the cached error from the
// first failing cell it reads, exactly as the serial runner did. Cells
// already computed cost one once-check, so overlapping prefetches are
// free.
func (r *Runner) prefetch(benches, keys []string) {
	n := len(benches) * len(keys)
	if w := r.workers(); w < n {
		n = w
	}
	if n <= 1 {
		return
	}
	type job struct{ bench, key string }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.Cell(j.bench, j.key) //nolint:errcheck // surfaced on the ordered read
			}
		}()
	}
	for _, b := range benches {
		for _, k := range keys {
			jobs <- job{b, k}
		}
	}
	close(jobs)
	wg.Wait()
}

// ExpKeys returns every experiment key in Figure 9 order.
func ExpKeys() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Key)
	}
	return out
}

// writeTraceFile renders one recorded run as Chrome trace-event JSON in
// dir, named <bench>_<experiment>.trace.json with spaces dashed so the
// "pl with shmem" key produces a shell-friendly name.
func writeTraceFile(dir, benchName, expKey string, rec *trace.Recorder) error {
	name := benchName + "_" + strings.ReplaceAll(expKey, " ", "-") + ".trace.json"
	f, err := os.Create(filepath.Join(dir, name))
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
	return nil
}

// BenchNames returns the suite's benchmark names in the paper's order.
func BenchNames() []string {
	var out []string
	for _, b := range programs.Suite() {
		out = append(out, b.Name)
	}
	return out
}
