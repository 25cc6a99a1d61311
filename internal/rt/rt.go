// Package rt executes a lowered ZPL program SPMD-style on a simulated
// parallel machine: virtual processors stepped by a bounded worker pool
// (sched.go), block distributed arrays with ghost regions, real data packed
// into pooled buffers and delivered through per-processor mailboxes, and a
// deterministic virtual clock per processor driven by the machine's cost
// model. Communication follows the IRONMAN call schedule computed by the
// optimizer (package comm).
//
// Data movement is real — the parallel result of a program is validated
// against its single-processor run — while time is simulated, so measured
// "execution times" are reproducible on any host.
package rt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/metrics"
	"commopt/internal/trace"
	"commopt/internal/vtime"
)

// Config selects the execution environment for one run.
type Config struct {
	Machine *machine.Machine
	Library string // key into Machine.Libs, e.g. "pvm", "shmem", "csend"
	Procs   int    // number of virtual processors

	// ConfigVars overrides the program's config variable defaults by name.
	ConfigVars map[string]float64

	// ForceInterpreter disables the kernel-compiled execution engine and
	// evaluates every array statement and reduction partial through the
	// closure interpreter. Simulated results must be identical either
	// way; the flag exists for differential testing and benchmarking.
	ForceInterpreter bool

	// Collective selects the allreduce algorithm (package collective).
	// The default, collective.Auto, picks the cheapest eligible algorithm
	// for the (machine, library, mesh) binding by simulated critical-path
	// cost — the same resolution cost.Predict performs, so a run and its
	// prediction always execute the same hop pattern. Forcing an
	// algorithm that is ineligible on the run's mesh (butterfly off
	// powers of two, twolevel on 1-D meshes) is an error when the program
	// contains reductions and more than one processor.
	Collective collective.Alg

	// SchedWorkers bounds the M:N scheduler's worker pool for this run
	// (0 = GOMAXPROCS). Independent of the pool size, every worker step
	// also passes through a process-wide admission budget of GOMAXPROCS
	// tokens shared by all concurrent runs, so harness parallelism can
	// never oversubscribe the host. With one worker the processors are
	// stepped one at a time with no host concurrency among them; simulated
	// results must be identical at any pool size, which makes the
	// one-worker run the scheduler's differential-testing reference.
	SchedWorkers int

	// Trace, when non-nil, records virtual-time-stamped events (IRONMAN
	// calls, message sends/receives, statement executions, reductions and
	// blocking waits) into the recorder's per-processor ring buffers.
	// Tracing never changes simulated results; when nil, the runtime's
	// fast path is a single pointer check per instrumentation point.
	Trace *trace.Recorder

	// Profile enables the per-callsite communication profile
	// (Result.Profile): every transfer's executed messages, bytes,
	// communication overhead and blocking waits attributed back to the
	// ZPL source positions the comm plan records on it.
	Profile bool

	// Metrics enables the run's metrics registry (Result.Metrics):
	// counters plus fixed-bucket histograms of message sizes, wait
	// durations and statement times.
	Metrics bool

	// Critpath, when non-nil, records the run's happens-before DAG in
	// virtual time into the recorder's per-processor segment logs: every
	// clock advance tagged with its attribution context, every blocking
	// wait with the message edge that ended it. Pass the finished
	// recorder to critpath.Analyze to extract the critical path.
	// Recording never changes simulated results; when nil, the fast path
	// is a single pointer check per clock advance.
	Critpath *critpath.Recorder
}

// Result reports one run's outcome.
type Result struct {
	ExecTime vtime.Duration // latest processor finish time

	// DynamicTransfers counts transfer call sites executed on processor 0
	// (the paper's dynamic communication count). Messages and BytesSent
	// count every actual message across all processors — point-to-point
	// transfers and collective hops alike; PerProcMsgs splits Messages by
	// sending rank (PerProcMsgs[r] is rank r's sends).
	DynamicTransfers int
	Messages         int
	BytesSent        int64
	Reductions       int
	PerProcMsgs      []int

	// Collective is the allreduce algorithm the run executed — the
	// resolution of Config.Collective. Auto when the program performs no
	// reductions or ran on one processor (no algorithm was needed).
	Collective collective.Alg

	Output string // rank-0 writeln output

	// Breakdown attributes the critical-path processor's virtual time to
	// computation, communication software overhead (the paper's "exposed"
	// cost) and blocking waits. PerProc holds every processor's split,
	// ordered by processor rank: PerProc[r] belongs to the processor with
	// rank r (row-major mesh order, rank = row*Cols + col); use
	// ProcBreakdown for checked access.
	Breakdown Breakdown
	PerProc   []Breakdown

	// Profile is the per-callsite communication profile (one row per plan
	// transfer, attributed to its source callsites), sorted by source
	// position. Nil unless Config.Profile was set.
	Profile []CallsiteProfile

	// Metrics is the run's merged metrics registry. Nil unless
	// Config.Metrics was set.
	Metrics *metrics.Registry

	// Sched reports the M:N scheduler's observability counters: per-
	// worker step counts, park events by reason, and the runnable-queue
	// and mailbox high-water marks.
	Sched *SchedStats

	Mesh   grid.Mesh
	arrays map[string]*Dense
}

// ProcBreakdown returns the virtual-time breakdown of the processor with
// the given rank, and whether the rank is in range.
func (r *Result) ProcBreakdown(rank int) (Breakdown, bool) {
	if rank < 0 || rank >= len(r.PerProc) {
		return Breakdown{}, false
	}
	return r.PerProc[rank], true
}

// Breakdown is one processor's virtual-time attribution. Every clock
// advance is charged to exactly one category, so Compute + Comm + Wait
// always equals Finish (the invariant TestBreakdownSumsToFinish checks).
type Breakdown struct {
	Compute vtime.Duration
	Comm    vtime.Duration
	Wait    vtime.Duration
	Finish  vtime.Duration // the processor's final clock value
}

// Total returns the sum of the categories.
func (b Breakdown) Total() vtime.Duration { return b.Compute + b.Comm + b.Wait }

// CommFraction returns the share of time spent in communication overhead
// plus waiting.
func (b Breakdown) CommFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Comm+b.Wait) / float64(t)
}

// Dense is a gathered global array (for validation and inspection).
type Dense struct {
	Rank int
	Reg  grid.Region
	data []float64
}

// At returns the value at global point (i, j, k).
func (d *Dense) At(i, j, k int) float64 {
	s := d.Reg.Spans
	if !s[0].Contains(i) || !s[1].Contains(j) || !s[2].Contains(k) {
		panic(fmt.Sprintf("rt: dense read (%d,%d,%d) outside %v", i, j, k, d.Reg))
	}
	n1 := s[1].Len()
	n2 := s[2].Len()
	return d.data[((i-s[0].Lo)*n1+(j-s[1].Lo))*n2+(k-s[2].Lo)]
}

// Array returns the gathered global contents of the named array, or nil.
func (r *Result) Array(name string) *Dense { return r.arrays[name] }

// MaxAbsDiff returns the largest absolute elementwise difference between
// the named array in r and in other (for parallel-vs-serial validation).
// NaN matches NaN; NaN against a number is an infinite difference.
func (r *Result) MaxAbsDiff(other *Result, name string) float64 {
	a, b := r.arrays[name], other.arrays[name]
	if a == nil || b == nil {
		panic(fmt.Sprintf("rt: array %q missing from result", name))
	}
	if a.Reg != b.Reg {
		panic(fmt.Sprintf("rt: array %q shape mismatch: %v vs %v", name, a.Reg, b.Reg))
	}
	worst := 0.0
	for i, x := range a.data {
		y := b.data[i]
		if x == y || (x != x && y != y) {
			continue // equal, or NaN on both sides
		}
		d := math.Abs(x - y)
		if d != d {
			return math.Inf(1) // NaN on one side only
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// world is the state shared by all virtual processors of one run.
type world struct {
	prog *ir.Program
	plan *comm.Plan
	mach *machine.Machine
	lib  *machine.Lib
	mesh grid.Mesh

	interp bool // run array statements on the interpreter, not kernels

	// main is the program body as setup bound it (proc.go: seg): every
	// block resolved to its plan and every control statement to its bodies.
	// Read-only once the processors run, so they walk it without locks or
	// lookups.
	main []seg

	// Shape classes (class.go) and, per dispatch site, what the site
	// compiled to for each class: by comm.Transfer.Slot, ir.AssignArray.ID
	// and ir.Reduce.ID, like the processors' own sites.
	classes  []*shapeClass
	nbhds    map[[3][3]int32]*nbhdClass
	xferCC   []classCache[*commSched]
	stmtCC   []classCache[*stmtPlan]
	reduceCC []classCache[*reduceKernel]

	// The program's literal regions as every processor evaluates them
	// (site.go), by ir.RegionExpr.Slot.
	literals []ir.RegionExpr

	// callNames holds every transfer's event and callsite strings by
	// Transfer.Slot (observe.go); nil unless tracing or critical-path
	// recording is on.
	callNames []callName

	configVals []float64     // by ScalarSym.ID, configs+consts evaluated
	regionVals []grid.Region // by RegionSym.ID, evaluated declared regions
	master     [2]grid.Span  // anchor spans for the block distribution

	procs      []*proc
	sched      *scheduler  // set by runSched
	schedStats *SchedStats // counters folded at the end of runSched

	// stats collects each processor's contribution as its body completes.
	// Append order follows completion order — which under the scheduler
	// depends on worker interleaving — so gather merges by rank.
	stats   []procStat
	statsMu sync.Mutex

	// Collective execution state: the algorithm resolved for this run and
	// every rank's hop schedule (collSteps[r], see collective.go). Both
	// stay nil/zero when the program has no reductions or runs on one
	// processor.
	collAlg   collective.Alg
	collSteps [][]collective.Step

	// collContrib is the shared contribution board: collContrib[s&1][r] is
	// rank r's raw input to reduction sequence s. Hop messages carry no
	// payload — every processor lives in one address space, so a gather
	// hop only needs to say *which* window it hands over; the values are
	// read off the board. The happens-before edges of the hop messages
	// themselves (the mailbox mutex) make the reads safe: a rank's window
	// covers slot j only after a message chain rooted at rank j's
	// contribution write. Two boards
	// suffice because a rank entering sequence s proves every rank
	// finished s-1 (completing s-1 needs a message chain covering all
	// ranks), so no reader of board s-2 survives. collFold caches the
	// rank-order fold of each board so P ranks folding the same butterfly
	// result cost one O(P) pass, not P of them.
	collContrib [2][]float64
	collFold    [2]foldCell

	abortErr error
	abortMu  sync.Mutex
}

// fail records the run's first error and stops the worker pool; parked
// processors unwind via errAborted in runSched's kill pass.
func (w *world) fail(err error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortErr = err
	}
	w.abortMu.Unlock()
	w.sched.halt()
}

// errAborted signals that another processor already failed.
var errAborted = fmt.Errorf("rt: run aborted by another processor's failure")

// PairChanCap is the per-directed-pair mailbox depth a plan is budgeted
// for: 2T+2 entries, where T is the plan's largest per-block (or
// per-preheader) transfer count. Block boundaries drain every in-flight
// transfer (block asserts all DR..SV sequences closed), so one pair's
// unconsumed messages come from at most T sends per block execution, and a
// receiver trailing its sender by under two executions holds no more than
// that. The mailbox FIFOs (sched.go) grow on demand and never block a
// sender, so the runtime allocates nothing by this number: the static
// protocol checker (package cost, rule proto-inflight-overflow) verifies
// every block's worst-case in-flight count against it, and
// SchedStats.MboxHiWater reports the depth a run actually reached.
func PairChanCap(plan *comm.Plan) int {
	return max(2*plan.MaxBlockTransfers()+2, 4)
}

// Run executes the program under the given plan and configuration.
func Run(prog *ir.Program, plan *comm.Plan, cfg Config) (*Result, error) {
	if plan.Program != prog {
		return nil, fmt.Errorf("rt: plan was built for a different program")
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("rt: processor count %d < 1", cfg.Procs)
	}
	lib, err := cfg.Machine.Lib(cfg.Library)
	if err != nil {
		return nil, err
	}
	mesh, err := grid.MeshFor(cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	w := &world{
		prog:   prog,
		plan:   plan,
		mach:   cfg.Machine,
		lib:    lib,
		mesh:   mesh,
		interp: cfg.ForceInterpreter,
	}
	if err := w.setup(cfg); err != nil {
		return nil, err
	}
	w.runSched(cfg.SchedWorkers, (*proc).run)
	if w.abortErr != nil {
		return nil, w.abortErr
	}
	return w.gather(), nil
}

// setup evaluates configs, constants and regions, builds the distribution,
// binds the program body and allocates every processor's fields.
func (w *world) setup(cfg Config) error {
	prog := w.prog
	w.configVals = make([]float64, len(prog.Scalars))
	// Configs and constants evaluate in declaration order; later ones may
	// reference earlier ones. Config overrides apply before constants that
	// depend on them are computed.
	ev := &scalarEnv{vals: w.configVals}
	for _, c := range prog.Configs {
		v := ev.eval(c.Init)
		if ov, ok := cfg.ConfigVars[c.Name]; ok {
			v = ov
		}
		w.configVals[c.ID] = v
	}
	for name := range cfg.ConfigVars {
		if prog.LookupConfig(name) == nil {
			return fmt.Errorf("rt: program has no config variable %q", name)
		}
	}
	for _, c := range prog.Consts {
		w.configVals[c.ID] = ev.eval(c.Init)
	}

	w.regionVals = make([]grid.Region, len(prog.Regions))
	for _, r := range prog.Regions {
		reg, err := evalRegionBounds(ev, r.RankN, r.Bounds)
		if err != nil {
			return fmt.Errorf("rt: region %s: %w", r.Name, err)
		}
		if reg.Empty() {
			return fmt.Errorf("rt: region %s is empty: %v", r.Name, reg)
		}
		w.regionVals[r.ID] = reg
	}

	// The first declared region of rank >= 2 anchors the block
	// distribution in both distributed dimensions (ZPL's trivial
	// alignment); a rank-1 first region anchors dimension 0 only.
	anchored := false
	for _, r := range prog.Regions {
		reg := w.regionVals[r.ID]
		if r.RankN >= 2 {
			w.master[0], w.master[1] = reg.Spans[0], reg.Spans[1]
			anchored = true
			break
		}
		if !anchored {
			w.master[0] = reg.Spans[0]
			w.master[1] = grid.Span{Lo: 1, Hi: 1}
			anchored = true
		}
	}
	if !anchored {
		return fmt.Errorf("rt: program declares no regions")
	}

	// Ghost widths must fit inside the smallest block.
	maxGhost := 0
	for _, a := range prog.Arrays {
		if a.Ghost > maxGhost {
			maxGhost = a.Ghost
		}
	}
	minBlock := w.master[0].Len() / w.mesh.Rows
	if c := w.master[1].Len() / w.mesh.Cols; w.mesh.Cols > 1 && c < minBlock {
		minBlock = c
	}
	if maxGhost > 0 && minBlock < maxGhost {
		return fmt.Errorf("rt: %d processors partition the %dx%d problem as a %s mesh, leaving blocks %d wide — smaller than the %d-wide ghost region; use fewer processors or a larger problem",
			w.mesh.Size(), w.master[0].Len(), w.master[1].Len(), w.mesh, minBlock, maxGhost)
	}

	// Bind every statement list the program can reach, once, shared by all
	// processors, and give every dispatch site its class cache with the
	// value it has wherever its region clips to nothing.
	w.foldLiterals(ev)
	w.main = w.bind(prog.Main.Body, map[*ir.Proc][]seg{})
	w.xferCC = make([]classCache[*commSched], w.plan.NumTransfers())
	w.eachTransfer(func(t *comm.Transfer) { w.xferCC[t.Slot].empty = emptySched(t) })
	w.stmtCC = make([]classCache[*stmtPlan], prog.NumArrayStmts)
	for i := range w.stmtCC {
		w.stmtCC[i].empty = &noPlan
	}
	w.reduceCC = make([]classCache[*reduceKernel], prog.NumReduces)

	// Resolve the collective algorithm and build every rank's hop
	// schedule, but only when a reduction can actually execute: the plan
	// records the program's reduction sites, and a single processor
	// reduces locally without any hops (so forcing a mesh-ineligible
	// algorithm there is not an error).
	if len(w.plan.Collectives) > 0 && w.mesh.Size() > 1 {
		alg, err := collective.Resolve(cfg.Collective, w.lib, w.mesh)
		if err != nil {
			return fmt.Errorf("rt: %w", err)
		}
		w.collAlg = alg
		w.collSteps = collective.AllSteps(alg, w.mesh)
		w.collContrib[0] = make([]float64, w.mesh.Size())
		w.collContrib[1] = make([]float64, w.mesh.Size())
		w.collFold[0].seq = -1
		w.collFold[1].seq = -1
	}
	w.stats = make([]procStat, 0, w.mesh.Size())
	w.procs = make([]*proc, w.mesh.Size())
	w.nbhds = map[[3][3]int32]*nbhdClass{}
	locals := make([]grid.Region, len(prog.Arrays))
	for rank := range w.procs {
		w.procs[rank] = newProc(w, rank)
		w.procs[rank].allocate(locals)
	}
	for _, p := range w.procs {
		p.meet()
	}

	// Observability wiring: each processor gets its own ring buffer,
	// profile accumulators and metrics registry, so recording needs no
	// locks and the disabled fast path stays a nil check.
	if cfg.Trace != nil || cfg.Critpath != nil {
		w.nameCalls()
	}
	if cfg.Trace != nil {
		cfg.Trace.Init(w.mesh.Size())
		for _, p := range w.procs {
			p.tr = cfg.Trace.Buffer(p.rank)
			cfg.Trace.SetProcLabel(p.rank, fmt.Sprintf("proc %d (%d,%d)", p.rank, p.row, p.col))
		}
	}
	if cfg.Profile {
		for _, p := range w.procs {
			p.prof = make([]profAcc, w.plan.NumTransfers())
			p.cprof = map[*comm.Collective]*profAcc{}
		}
	}
	if cfg.Metrics {
		for _, p := range w.procs {
			p.met = newProcMetrics()
		}
	}
	if cfg.Critpath != nil {
		cfg.Critpath.Init(w.mesh.Size())
		for _, p := range w.procs {
			p.cpl = cfg.Critpath.Log(p.rank)
		}
	}
	return nil
}

// gather assembles the final global arrays and statistics from the
// per-processor stats folded in at completion. world.stats is in
// completion order — under the scheduler that order depends on worker
// interleaving — so every merge here keys on the recorded rank, never on
// arrival position.
func (w *world) gather() *Result {
	res := &Result{Mesh: w.mesh, arrays: map[string]*Dense{}, Collective: w.collAlg}
	res.PerProc = make([]Breakdown, len(w.procs))
	res.PerProcMsgs = make([]int, len(w.procs))
	for _, st := range w.stats {
		res.PerProc[st.rank] = st.bd
		res.PerProcMsgs[st.rank] = st.messages
		res.Messages += st.messages
		res.BytesSent += st.bytesSent
		if st.rank == 0 {
			res.DynamicTransfers = st.dynTransfers
			res.Reductions = st.reductions
		}
	}
	// Critical path: among processors tied for the latest finish, the
	// lowest rank wins, independent of completion order.
	for _, bd := range res.PerProc {
		if bd.Finish > res.ExecTime {
			res.ExecTime = bd.Finish
			res.Breakdown = bd
		}
	}
	res.Output = w.procs[0].output.String()
	res.Profile = w.gatherProfile()
	res.Metrics = w.gatherMetrics()
	res.Sched = w.schedStats

	for _, a := range w.prog.Arrays {
		// The dense array is laid out as a ghostless field over the array's
		// region, so both sides of the copy are field.RectRuns of the same
		// shape; g.Run refuses an owned block that leaves the region.
		reg := w.regionVals[a.Region.ID]
		g := field.New(a.Name, reg, 0)
		d := &Dense{Rank: a.Region.RankN, Reg: reg, data: g.Data()}
		for _, p := range w.procs {
			if f := p.fields[a.ID]; f.Allocated() {
				copyRun(d.data, g.Run(f.Local), f.Data(), f.Run(f.Local))
			}
		}
		res.arrays[a.Name] = d
	}
	return res
}

// DumpArrays lists gathered array names (diagnostics).
func (r *Result) DumpArrays() string {
	names := make([]string, 0, len(r.arrays))
	for n := range r.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
