// Package experiments regenerates every figure and table of the paper's
// evaluation section: the machine and binding tables (Figures 3 and 5),
// the exposed-overhead curves (Figure 6), the benchmark table (Figure 7),
// the communication-count reductions (Figures 8 and 11), the scaled
// execution times (Figures 10 and 12) and the per-benchmark result tables
// (Tables 1-4).
package experiments

import (
	"cmp"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/critpath"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/trace"
	"commopt/internal/vtime"
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
	for _, e := range slices.Concat(Experiments(), RDMAExperiments()) {
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

// Runner executes and caches benchmark runs on the simulated machines.
// Every figure, sweep, profile, critical path and prediction describes
// what it needs as cells and runs them through one path (setup, run), one
// compute-once memo and one worker pool (measureAll). Every rt.Run owns its
// world and virtual time is deterministic, so the measured cells — and
// therefore every rendered figure and table — are byte-identical at any
// worker count.
type Runner struct {
	Procs int  // default 64
	Quick bool // use the reduced calibration sizes

	// Workers bounds how many cells execute concurrently when a figure
	// prefetches its inputs. Zero means GOMAXPROCS; one disables
	// concurrency entirely.
	Workers int

	// TraceDir, when non-empty, writes a Chrome trace-event JSON timeline
	// (virtual time, one row per processor) for every run into the
	// directory, named <label>.trace.json after the cell's label.
	TraceDir string

	mu       sync.Mutex // guards the maps and compiled programs/plans
	programs map[string]*compiled
	memo     map[string]*entry
}

// cell is one point of the experiment space: a benchmark under an
// experiment on a partition. Sweeps vary the grid size and the allreduce
// algorithm; an instrumented cell also records the per-callsite profile
// and the critical path, and is memoized apart from the plain cell so the
// figures stay the product of uninstrumented runs.
type cell struct {
	bench, exp   string
	procs        int
	n            float64        // grid size override; 0 keeps the benchmark's
	alg          collective.Alg // forced allreduce algorithm; Auto resolves
	instrumented bool
}

// outcome is what the tables read off one run. It never holds the
// *rt.Result: the gathered arrays would stay live for the Runner's life.
type outcome struct {
	Cell
	mesh      grid.Mesh
	breakdown rt.Breakdown
	alg       collective.Alg // the allreduce algorithm the run executed

	// Instrumented cells only.
	profile []rt.CallsiteProfile
	sched   *rt.SchedStats
	path    *critpath.Path
}

// entry is one cell's compute-once slot. The once runs outside the Runner
// lock so independent cells execute in parallel, while two requests for
// the same cell still share one run.
type entry struct {
	once sync.Once
	out  outcome
	err  error
}

type compiled struct {
	bench programs.Benchmark
	prog  *ir.Program
	plans map[comm.Options]*comm.Plan
}

// NewRunner returns a Runner for the given processor count (64 if zero,
// the paper's partition size).
func NewRunner(procs int) *Runner {
	return &Runner{Procs: cmp.Or(procs, 64), programs: map[string]*compiled{}, memo: map[string]*entry{}}
}

// workers resolves the effective worker count.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// configVars returns the config variables a benchmark runs with at the
// Runner's sizes: the paper's, or the reduced calibration sizes.
func (r *Runner) configVars(b programs.Benchmark) map[string]float64 {
	if r.Quick {
		return b.CalibConfig
	}
	return b.PaperConfig
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
	_, prog, err := ir.Compile(name, bench.Source)
	if err != nil {
		return nil, err
	}
	c := &compiled{bench: bench, prog: prog, plans: map[comm.Options]*comm.Plan{}}
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
	plan, ok := c.plans[exp.Options]
	if !ok {
		plan = comm.BuildPlan(c.prog, exp.Options)
		c.plans[exp.Options] = plan
	}
	return c, plan, nil
}

// gridCell is one benchmark under one experiment on the Runner's
// partition: a cell of the paper's grid.
func (r *Runner) gridCell(benchName, expKey string) cell {
	return cell{bench: benchName, exp: expKey, procs: r.Procs}
}

// label names a cell: its memo key, its error prefix and its trace file
// name. Grid cells are <bench>_<exp> (spaces dashed, so "pl with shmem"
// gives a shell-friendly name); a cell adds what differs from the grid.
func (r *Runner) label(c cell) string {
	s := c.bench + "_" + strings.ReplaceAll(c.exp, " ", "-")
	if c.procs != r.Procs {
		s += fmt.Sprintf("_p%d", c.procs)
	}
	if c.n != 0 {
		s += fmt.Sprintf("_n%g", c.n)
	}
	if c.alg != collective.Auto {
		s += "_" + c.alg.String()
	}
	if c.instrumented {
		s += "_instrumented"
	}
	return s
}

// setup turns a cell into the program, the plan and the one config that
// rt.Run and cost.Predict both read: the experiment's machine and library,
// the Runner's sizes, and one scheduler worker per run whenever cells run
// concurrently — independent simulations scale across cores, while
// workers inside one world mostly wait on each other's virtual times.
func (r *Runner) setup(c cell) (*ir.Program, *comm.Plan, rt.Config, error) {
	exp, err := ExperimentByKey(c.exp)
	if err != nil {
		return nil, nil, rt.Config{}, err
	}
	comp, plan, err := r.planFor(c.bench, exp)
	if err != nil {
		return nil, nil, rt.Config{}, err
	}
	mach, err := machine.ByName(cmp.Or(exp.Machine, "t3d"))
	if err != nil {
		return nil, nil, rt.Config{}, err
	}
	vars := r.configVars(comp.bench)
	if c.n != 0 {
		vars = maps.Clone(vars)
		vars["n"] = c.n
	}
	cfg := rt.Config{Machine: mach, Library: exp.Library, Procs: c.procs, ConfigVars: vars, Collective: c.alg}
	if r.workers() > 1 {
		cfg.SchedWorkers = 1
	}
	return comp.prog, plan, cfg, nil
}

// measure runs (or recalls) one cell.
func (r *Runner) measure(c cell) (*outcome, error) {
	label := r.label(c)
	r.mu.Lock()
	e := r.memo[label]
	if e == nil {
		e = &entry{}
		r.memo[label] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		if e.err = r.run(c, label, &e.out); e.err != nil {
			e.err = fmt.Errorf("%s: %w", label, e.err)
		}
	})
	return &e.out, e.err
}

// run executes one cell into out. Compilation and plan construction go
// through the Runner lock; the simulated run itself is lock-free, so cells
// on different workers execute truly in parallel. An instrumented run
// re-proves the conservation invariant: the analyzed critical path must sum
// exactly — to the nanosecond — to the run's execution time, so a table
// that renders at all is a table whose attribution is complete.
func (r *Runner) run(c cell, label string, out *outcome) error {
	prog, plan, cfg, err := r.setup(c)
	if err != nil {
		return err
	}
	if r.TraceDir != "" {
		cfg.Trace = trace.NewRecorder()
	}
	if c.instrumented {
		cfg.Profile = true
		cfg.Critpath = critpath.NewRecorder()
	}
	res, err := rt.Run(prog, plan, cfg)
	if err != nil {
		return err
	}
	if cfg.Trace != nil {
		if err := trace.WriteChromeFile(filepath.Join(r.TraceDir, label+".trace.json"), cfg.Trace); err != nil {
			return err
		}
	}
	if c.instrumented {
		p, err := critpath.Analyze(cfg.Critpath)
		if err != nil {
			return err
		}
		if p.Finish != res.ExecTime {
			return fmt.Errorf("critical path sums to %v but the run finished at %v — attribution is not conservative",
				p.Finish, res.ExecTime)
		}
		out.profile, out.sched, out.path = res.Profile, res.Sched, p
	}
	var maxComm vtime.Duration
	for _, bd := range res.PerProc {
		maxComm = max(maxComm, bd.Comm)
	}
	out.Cell = Cell{
		Static:   plan.StaticCount,
		Dynamic:  res.DynamicTransfers,
		Time:     res.ExecTime,
		Messages: res.Messages,
		Bytes:    res.BytesSent,
		Comm:     maxComm,
	}
	out.mesh, out.breakdown, out.alg = res.Mesh, res.Breakdown, res.Collective
	return nil
}

// predict runs the closed-form cost predictor on one cell, under the
// config the cell's run measures under.
func (r *Runner) predict(c cell) (*cost.Prediction, error) {
	prog, plan, cfg, err := r.setup(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.label(c), err)
	}
	pred, err := cost.Predict(prog, plan, cost.Config{
		Machine: cfg.Machine, Library: cfg.Library, Procs: cfg.Procs,
		Collective: cfg.Collective, ConfigVars: cfg.ConfigVars,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.label(c), err)
	}
	return pred, nil
}

// measureAll computes cells on up to workers goroutines, the caller one of
// them, handing out cells in order (with one worker, it runs them in order
// on the caller), and returns their outcomes in order, or the first error
// in that order.
func (r *Runner) measureAll(cs []cell) ([]*outcome, error) {
	outs := make([]*outcome, len(cs))
	errs := make([]error, len(cs))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(cs); i = int(next.Add(1)) - 1 {
			outs[i], errs[i] = r.measure(cs[i])
		}
	}
	var wg sync.WaitGroup
	for range min(r.workers(), len(cs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// gridCells returns the cells of benches × keys in that order.
func (r *Runner) gridCells(benches, keys []string, instrumented bool) []cell {
	var cs []cell
	for _, b := range benches {
		for _, k := range keys {
			cs = append(cs, cell{bench: b, exp: k, procs: r.Procs, instrumented: instrumented})
		}
	}
	return cs
}

// Cell runs (or recalls) one benchmark under one experiment.
func (r *Runner) Cell(benchName, expKey string) (Cell, error) {
	o, err := r.measure(r.gridCell(benchName, expKey))
	return o.Cell, err
}

// prefetch computes the cross product of benchmarks × experiment keys on
// the worker pool, so a figure's later sequential Cell reads all hit the
// cache. Errors are not reported here: the figure re-requests each cell
// in its own deterministic order and surfaces the cached error from the
// first failing cell it reads. Cells already computed cost one
// once-check, so overlapping prefetches are free.
func (r *Runner) prefetch(benches, keys []string) {
	r.measureAll(r.gridCells(benches, keys, false)) //nolint:errcheck // surfaced on the ordered read
}

// ExpKeys returns every experiment key in Figure 9 order.
func ExpKeys() []string { return keysOf(Experiments()) }

// keysOf returns the keys of exps in order.
func keysOf(exps []Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.Key
	}
	return out
}

// BenchNames returns the suite's benchmark names in the paper's order.
func BenchNames() []string {
	var out []string
	for _, b := range programs.Suite() {
		out = append(out, b.Name)
	}
	return out
}
