package main

import (
	"bytes"
	"embed"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/experiments"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

//go:embed workloads/*.zpl
var workloadFS embed.FS

// workloadDef names one workload and why it is in the benchmark.
// BENCHMARK.json carries the same list.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"paper_sweep", "the product: all 24 benchmark x experiment cells plus figures on a fresh Runner; mixed profile, cell-level parallelism"},
	{"stencil_compute", "swm and simple on a 2x2 mesh: array-statement kernels do the work, dispatch and scheduler are idle, async sends occur"},
	{"wavefront_sync", "tomcatv and sp on 64 procs under shmem and pvm: tiny blocks, IRONMAN dispatch and scheduler parks dominate"},
	{"scale_4096", "jacobi with an allreduce and swm on 4096 procs: world set-up, per-proc compilation, collective hops and memory dominate"},
}

// runSpec is one simulated run: a program, an optimization level, a
// library binding, a partition and the config values the program gets.
type runSpec struct {
	prog  string // a suite benchmark, or a file of bench/workloads without .zpl
	opts  comm.Options
	lib   string
	procs int
	vars  map[string]float64
}

func varsString(vars map[string]float64) string {
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = fmt.Sprintf("%s=%g", k, vars[k])
	}
	return strings.Join(keys, ",")
}

// refKey names the reference a run is checked against: its program and
// config values, whatever the level, library and partition.
func (s runSpec) refKey() string { return s.prog + "/" + varsString(s.vars) }

func (s runSpec) label() string {
	return fmt.Sprintf("%s/%s/%s/p%d/%s", s.prog, s.opts, s.lib, s.procs, varsString(s.vars))
}

func (s runSpec) with(name string, v float64) runSpec {
	vars := map[string]float64{name: v}
	for k, old := range s.vars {
		if k != name {
			vars[k] = old
		}
	}
	s.vars = vars
	return s
}

func (s runSpec) config() rt.Config {
	return rt.Config{
		Machine:    machine.T3D(),
		Library:    s.lib,
		Procs:      s.procs,
		ConfigVars: s.vars,
		Collective: collective.Auto,
	}
}

func (s runSpec) costConfig() cost.Config {
	return cost.Config{Machine: machine.T3D(), Library: s.lib, Procs: s.procs, ConfigVars: s.vars, Collective: collective.Auto}
}

// program is one compiled input with the plans built for it so far.
type program struct {
	ir    *ir.Program
	plans map[string]*comm.Plan // by Options.String()
}

func source(name string) (string, error) {
	if b, err := programs.ByName(name); err == nil {
		return b.Source, nil
	}
	data, err := workloadFS.ReadFile("workloads/" + name + ".zpl")
	if err != nil {
		return "", fmt.Errorf("no program %q in the suite or in bench/workloads", name)
	}
	return string(data), nil
}

// lab holds what a workload compiled at set-up and what its checks compare
// against. References and predictions never come from the runs they check:
// a reference is a one-processor comm.Baseline() run, a prediction is
// cost.Predict's closed form.
type lab struct {
	mu    sync.Mutex
	progs map[string]*program
	refs  map[string]*reference       // by runSpec.refKey
	preds map[string]*cost.Prediction // by runSpec.label
	yard  *yardstick                  // read after every repetition once set-up is over
}

func newLab() *lab {
	return &lab{progs: map[string]*program{}, refs: map[string]*reference{}, preds: map[string]*cost.Prediction{}}
}

// compiled returns the program and plan of a spec, compiling on first use.
func (l *lab) compiled(s runSpec) (*ir.Program, *comm.Plan, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.progs[s.prog]
	if p == nil {
		src, err := source(s.prog)
		if err != nil {
			return nil, nil, err
		}
		ast, err := zpl.Parse(src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.prog, err)
		}
		low, err := ir.Lower(ast)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.prog, err)
		}
		p = &program{ir: low, plans: map[string]*comm.Plan{}}
		l.progs[s.prog] = p
	}
	plan := p.plans[s.opts.String()]
	if plan == nil {
		plan = comm.BuildPlan(p.ir, s.opts)
		p.plans[s.opts.String()] = plan
	}
	return p.ir, plan, nil
}

// run executes one spec; tune, when not nil, adjusts the configuration.
func (l *lab) run(s runSpec, tune func(*rt.Config)) (*rt.Result, error) {
	prog, plan, err := l.compiled(s)
	if err != nil {
		return nil, err
	}
	cfg := s.config()
	if tune != nil {
		tune(&cfg)
	}
	return rt.Run(prog, plan, cfg)
}

// prepare computes the reference and the prediction of every spec, on up
// to GOMAXPROCS goroutines: the references are independent one-processor
// runs.
func (l *lab) prepare(specs []runSpec) error {
	type job func() error
	var jobs []job
	seen := map[string]bool{}
	for _, s := range specs {
		if _, _, err := l.compiled(s); err != nil {
			return err
		}
		if key := s.refKey(); !seen[key] {
			seen[key] = true
			jobs = append(jobs, func() error {
				one := s
				one.opts, one.lib, one.procs = comm.Baseline(), "pvm", 1
				res, err := l.run(one, nil)
				if err != nil {
					return fmt.Errorf("reference %s: %w", key, err)
				}
				ref := newReference(res)
				l.mu.Lock()
				l.refs[key] = ref
				l.mu.Unlock()
				return nil
			})
		}
		if !seen[s.label()] {
			seen[s.label()] = true
			jobs = append(jobs, func() error {
				prog, plan, _ := l.compiled(s)
				pred, err := cost.Predict(prog, plan, s.costConfig())
				if err != nil {
					return fmt.Errorf("predict %s: %w", s.label(), err)
				}
				l.mu.Lock()
				l.preds[s.label()] = pred
				l.mu.Unlock()
				return nil
			})
		}
	}
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRun checks one finished run against its reference and prediction:
// one check per array, one for per-rank conservation, one for the
// prediction, and for jacobi_reduce two against its analytic answer. It
// returns the hash of the run's arrays.
func (l *lab) checkRun(c *checker, s runSpec, res *rt.Result, err error) uint64 {
	ref, pred := l.refs[s.refKey()], l.preds[s.label()]
	if err != nil {
		c.failN(len(ref.arrays)+2, "%s: %v", s.label(), err)
		return 0
	}
	hash := c.checkArrays(s.label(), res, ref)
	c.checkConservation(s.label(), res)
	c.check(predictionMatches(pred, res), "%s: cost.Predict differs from the run (messages %d vs %d)", s.label(), pred.Messages, res.Messages)
	if s.prog == "jacobi_reduce" {
		u := res.Array("U")
		fixed := true
		forEach(u.Reg, func(i, j, k int) {
			if u.At(i, j, k) != float64(i+j) {
				fixed = false
			}
		})
		c.check(fixed, "%s: U moved off the fixed point Index1+Index2", s.label())
		c.check(strings.TrimSpace(res.Output) == "resid 0", "%s: residual output %q, want \"resid 0\"", s.label(), res.Output)
	}
	return hash
}

// levelHashes remembers the array hash of each config's runs within one
// repetition, so runs of one config at several optimization levels can be
// held to bit-identity.
type levelHashes map[string]uint64 // by refKey

func (h levelHashes) check(c *checker, s runSpec, hash uint64) {
	if prev, ok := h[s.refKey()]; ok {
		c.check(prev == hash, "%s: arrays not bit-identical across optimization levels", s.label())
	}
	h[s.refKey()] = hash
}

// harvest sums what the traced repetition's runs report about themselves:
// the counters of rt.Config.Metrics and the scheduler's statistics.
type harvest struct {
	calls, stmts, stmtsKernel, stmtsFused, asyncSends int64
	messages, bytes                                   int64
	steps, parks                                      int64
	runqHi, mboxHi                                    int
	predictions, exact                                int
}

func (h *harvest) add(res *rt.Result, pred *cost.Prediction) {
	h.messages += int64(res.Messages)
	h.bytes += res.BytesSent
	h.predictions++
	if pred != nil && predictionMatches(pred, res) {
		h.exact++
	}
	if res.Metrics != nil {
		for _, c := range res.Metrics.Counters() {
			switch {
			case strings.HasPrefix(c.Name, "ironman_calls_"):
				h.calls += c.N
			case c.Name == "overlap_async_sends":
				h.asyncSends += c.N
			case c.Name == "stmts_kernel":
				h.stmtsKernel += c.N
			case c.Name == "stmts_fused":
				h.stmtsFused += c.N
			}
			if strings.HasPrefix(c.Name, "stmts_") {
				h.stmts += c.N
			}
		}
	}
	if st := res.Sched; st != nil {
		h.steps += st.TotalSteps()
		h.parks += st.TotalParks()
		h.runqHi = max(h.runqHi, st.RunqHiWater)
		h.mboxHi = max(h.mboxHi, st.MboxHiWater)
	}
}

// repCost is the host cost of one body repetition, what the yardstick
// took right after it, and the simulated time its runs add up to, in
// virtual nanoseconds: an integer, so the sum does not depend on the order
// of the runs.
type repCost struct {
	meter
	yard yardCost
	sim  vtime.Duration
}

// followed is rep with the yardstick's reading after it.
func (l *lab) followed(tr *tracer, rep repCost) repCost {
	tr.in("bench.yardstick", "", func() { rep.yard = l.yard.follow(rep.wall) })
	return rep
}

// seconds returns the repetition's wall and CPU seconds over the host's
// slowdown as the yardstick saw it right after: what the repetition would
// have taken on the quiet reference host.
func (r repCost) seconds() (wall, cpu float64) {
	slowWall, slowCPU := r.yard.slowdown()
	return r.wall.Seconds() / slowWall, r.cpu.Seconds() / slowCPU
}

// workload is one benchmark workload after its inputs were generated.
type workload interface {
	// sizes lists the runs of one body, as drawn from the seed.
	sizes() []string
	// prepare compiles the inputs and computes references and
	// predictions; checks that need no timed run are made here.
	prepare(c *checker) error
	// rep runs the body once. A nil checker skips the checks (the warm-up
	// repetition, made before the references exist). A tracer records a
	// span per call, and with a harvest the runs count their own events.
	rep(c *checker, tr *tracer, h *harvest) repCost
	// probe is the run the per-layer differentials are taken on.
	probe() runSpec
	lab() *lab
}

// runset is a workload whose body is a list of rt.Run calls.
type runset struct {
	l     *lab
	specs []runSpec
	rng   *rand.Rand
	first map[string]leaf // every run's simulated outcome at its first execution
}

func (w *runset) lab() *lab      { return w.l }
func (w *runset) probe() runSpec { return w.specs[0] }

func (w *runset) sizes() []string {
	out := make([]string, len(w.specs))
	for i, s := range w.specs {
		out[i] = s.label()
	}
	return out
}

func (w *runset) prepare(*checker) error { return w.l.prepare(w.specs) }

func (w *runset) rep(c *checker, tr *tracer, h *harvest) repCost {
	var cost repCost
	hashes := levelHashes{}
	for _, i := range w.rng.Perm(len(w.specs)) {
		s := w.specs[i]
		var res *rt.Result
		var err error
		id := tr.begin("rt.Run", s.label())
		cost.measure(func() {
			res, err = w.l.run(s, func(cfg *rt.Config) { cfg.Metrics = h != nil })
		})
		tr.end(id)
		if err == nil {
			cost.sim += res.ExecTime
			if _, ok := w.first[s.label()]; !ok {
				w.first[s.label()] = leafOf(res)
			}
			if h != nil {
				h.add(res, w.l.preds[s.label()])
			}
		}
		if c == nil {
			// Warm-up: collect each run's garbage before the next starts, so
			// the memory high-water mark read after it is the largest run's
			// own and not an accident of which two runs overlapped.
			runtime.GC()
			continue
		}
		id = tr.begin("bench.check", s.label())
		hash := w.l.checkRun(c, s, res, err)
		if err == nil {
			c.check(leafOf(res) == w.first[s.label()], "%s: simulated outcome differs between repetitions", s.label())
			hashes.check(c, s, hash)
		}
		tr.end(id)
	}
	return cost
}

// newWorkload generates the named workload's inputs from the seed. Sizes
// are the benchmark's own, or with smoke miniature ones for the tier-1
// test. Every body runs each size of its sets, so the work of a
// repetition does not depend on the seed; the seed draws the order of the
// runs inside each repetition and, on scale_4096, the uneven block size.
func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(full, small []float64) []float64 {
		if smoke {
			return small
		}
		return full
	}
	scalar := func(full, small float64) float64 {
		if smoke {
			return small
		}
		return full
	}
	pl, base := comm.PL(), comm.Baseline()
	var specs []runSpec
	switch name {
	case "paper_sweep":
		return newSweep(smoke), nil
	case "stencil_compute":
		for _, n := range pick([]float64{1024, 1040, 1056}, []float64{24, 28, 32}) {
			specs = append(specs, runSpec{"swm", pl, "pvm", 4, map[string]float64{"n": n, "iters": scalar(4, 2)}})
		}
		for _, n := range pick([]float64{512, 520, 528}, []float64{24, 28, 32}) {
			specs = append(specs, runSpec{"simple", pl, "pvm", 4, map[string]float64{"n": n, "iters": scalar(6, 2)}})
		}
	case "wavefront_sync":
		for _, n := range pick([]float64{120, 128, 136}, []float64{24, 32}) {
			vars := map[string]float64{"n": n, "iters": scalar(4, 1)}
			specs = append(specs, runSpec{"tomcatv", pl, "shmem", 64, vars}, runSpec{"tomcatv", base, "pvm", 64, vars})
		}
		for _, iters := range pick([]float64{9, 10, 11}, []float64{1, 2}) {
			vars := map[string]float64{"n": 16, "nz": scalar(16, 8), "iters": iters}
			specs = append(specs, runSpec{"sp", pl, "shmem", 64, vars}, runSpec{"sp", base, "pvm", 64, vars})
		}
	case "scale_4096":
		procs := int(scalar(4096, 256))
		even := scalar(512, 64)
		unevens := pick([]float64{500, 504, 508}, []float64{58, 60, 62})
		uneven := unevens[rng.Intn(len(unevens))]
		specs = append(specs,
			runSpec{"jacobi_reduce", pl, "pvm", procs, map[string]float64{"n": even, "iters": scalar(6, 3)}},
			runSpec{"jacobi_reduce", pl, "pvm", procs, map[string]float64{"n": uneven, "iters": scalar(6, 3)}},
			runSpec{"swm", pl, "pvm", procs, map[string]float64{"n": even, "iters": 2}})
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return &runset{l: newLab(), specs: specs, rng: rng, first: map[string]leaf{}}, nil
}

// tomcatvStatic are TOMCATV's static communication counts under the six
// experiments, counted by hand from the source (README, verify notes).
var tomcatvStatic = map[string]int{
	"baseline": 56, "rr": 31, "cc": 15, "pl": 15, "pl with shmem": 15, "pl with max latency": 30,
}

// sweep is the paper_sweep workload: experiments.RunAll on a fresh Runner.
type sweep struct {
	l         *lab
	procs     int
	cells     []sweepCell
	probeSpec runSpec             // tomcatv under pl/pvm
	first     []experiments.Cell  // the cells of the first repetition
	last      *experiments.Runner // the Runner of the latest repetition
	out       []byte              // RunAll's output at the first repetition
}

type sweepCell struct {
	bench, key string
	spec       runSpec // the same cell as a direct rt.Run
}

func newSweep(smoke bool) *sweep {
	w := &sweep{l: newLab(), procs: 64}
	if smoke {
		w.procs = 16
	}
	for _, b := range programs.Suite() {
		for _, e := range experiments.Experiments() {
			cell := sweepCell{b.Name, e.Key, runSpec{b.Name, e.Options, e.Library, w.procs, b.CalibConfig}}
			w.cells = append(w.cells, cell)
			if b.Name == "tomcatv" && e.Key == "pl" {
				w.probeSpec = cell.spec
			}
		}
	}
	return w
}

func (w *sweep) lab() *lab      { return w.l }
func (w *sweep) probe() runSpec { return w.probeSpec }

func (w *sweep) sizes() []string {
	out := make([]string, len(w.cells))
	for i, c := range w.cells {
		out[i] = c.spec.label()
	}
	return out
}

// prepare computes every cell's prediction and, because the Runner returns
// no arrays, validates the programs it runs here: each benchmark's
// baseline and pl runs against the one-processor reference.
func (w *sweep) prepare(c *checker) error {
	var specs, direct []runSpec
	for _, cell := range w.cells {
		specs = append(specs, cell.spec)
		if cell.key == "baseline" || cell.key == "pl" {
			direct = append(direct, cell.spec)
		}
	}
	if err := w.l.prepare(specs); err != nil {
		return err
	}
	hashes := levelHashes{}
	for _, s := range direct {
		res, err := w.l.run(s, nil)
		if hash := w.l.checkRun(c, s, res, err); err == nil {
			hashes.check(c, s, hash)
		}
	}
	return nil
}

func (w *sweep) newRunner(tr *tracer) *experiments.Runner {
	var r *experiments.Runner
	tr.in("experiments.NewRunner", "", func() {
		r = experiments.NewRunner(w.procs)
		r.Quick = true
		r.Workers = runtime.GOMAXPROCS(0)
	})
	return r
}

func (w *sweep) rep(c *checker, tr *tracer, h *harvest) repCost {
	var cost repCost
	var out bytes.Buffer
	var r *experiments.Runner
	var err error
	cost.measure(func() {
		r = w.newRunner(tr)
		tr.in("experiments.RunAll", "fresh Runner", func() { err = experiments.RunAll(&out, r) })
	})
	cells := make([]experiments.Cell, len(w.cells))
	for i, cell := range w.cells {
		if err != nil {
			break
		}
		tr.in("experiments.Cell", cell.spec.label(), func() { cells[i], err = r.Cell(cell.bench, cell.key) })
		cost.sim += cells[i].Time
	}
	w.last = r
	if w.first == nil && err == nil {
		w.first, w.out = cells, out.Bytes()
	}
	if c == nil {
		return cost
	}
	id := tr.begin("bench.check", "cells")
	defer tr.end(id)
	if err != nil {
		c.failN(2*len(w.cells)+len(tomcatvStatic)+1, "paper_sweep: %v", err)
		return cost
	}
	for i, cell := range w.cells {
		pred, got := w.l.preds[cell.spec.label()], cells[i]
		var comm int64
		for _, d := range pred.PerProcComm {
			comm = max(comm, int64(d))
		}
		c.check(pred.Messages == got.Messages && pred.BytesSent == got.Bytes && pred.DynamicTransfers == got.Dynamic && comm == int64(got.Comm),
			"%s: cost.Predict differs from the cell (messages %d vs %d)", cell.spec.label(), pred.Messages, got.Messages)
		c.check(got == w.first[i], "%s: cell differs between repetitions", cell.spec.label())
		if want, ok := tomcatvStatic[cell.key]; ok && cell.bench == "tomcatv" {
			c.check(got.Static == want, "tomcatv/%s: static count %d, want %d", cell.key, got.Static, want)
		}
	}
	c.check(bytes.Equal(out.Bytes(), w.out), "paper_sweep: RunAll output differs between repetitions")
	if h != nil {
		w.replay(c, tr, h, cells)
	}
	return cost
}

// replay runs every cell again as a direct rt.Run with its metrics on, the
// way the Runner configures it, so the traced repetition can count the
// events behind the sweep; each replay must reproduce its cell.
func (w *sweep) replay(c *checker, tr *tracer, h *harvest, cells []experiments.Cell) {
	for i, cell := range w.cells {
		var res *rt.Result
		var err error
		tr.in("rt.Run", cell.spec.label(), func() {
			res, err = w.l.run(cell.spec, func(cfg *rt.Config) {
				cfg.Metrics = true
				cfg.SchedWorkers = 1
			})
		})
		if err != nil {
			c.check(false, "%s: replay: %v", cell.spec.label(), err)
			continue
		}
		h.add(res, w.l.preds[cell.spec.label()])
		c.check(res.ExecTime == cells[i].Time && res.Messages == cells[i].Messages,
			"%s: direct run differs from the Runner's cell", cell.spec.label())
	}
}

// warmRender times a second RunAll on the last repetition's Runner, whose
// cells are all computed: figure and table rendering only.
func (w *sweep) warmRender(tr *tracer) (time.Duration, error) {
	var err error
	t0 := time.Now()
	tr.in("experiments.RunAll", "warm Runner", func() { err = experiments.RunAll(io.Discard, w.last) })
	return time.Since(t0), err
}
