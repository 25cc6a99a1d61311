package rt

import (
	"fmt"
	"math"
	"strings"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/trace"
	"commopt/internal/vtime"
)

// proc is one virtual processor: its data, clock and plumbing.
//
// Communication state is indexed by *neighbor slot*, not by peer rank:
// transfers only ever move data between mesh neighbors, so each
// processor has at most eight peers regardless of mesh size. slot-
// indexed arrays keep per-processor footprint independent of the
// processor count (rank-indexed arrays made 4096-proc worlds quadratic
// in memory before they executed a single statement).
type proc struct {
	w         *world
	rank      int
	row, col  int
	cls       *shapeClass // the processors with congruent blocks (class.go)
	ncls      *nbhdClass  // the processors with congruent 3×3 neighbourhoods
	clock     vtime.Time
	fields    []*field.Field // by ArraySym.ID
	scalars   []float64      // by ScalarSym.ID
	fnCache   map[ir.Expr]evalFn
	neighbors []int          // mesh-neighbor ranks in deterministic (dr,dc) order
	nbr       [3][3]neighbor // nbr[dr+1][dc+1]: the neighbor at mesh displacement (dr,dc)
	// pending[slot][tag] stashes out-of-order messages. The whole structure
	// is nil until the first message actually arrives out of order
	// (recvTagged); fully in-order programs never pay for it.
	pending []map[int][]*dataMsg

	// Scheduler plumbing (sched.go). The body runs as a pull coroutine:
	// next switches a worker into it until it parks or returns (false,
	// once), toWorker is the switch back (false when stopped), and stop
	// ends it wherever it stands. mb is the mailbox peers deliver events
	// into.
	mb       mbox
	next     func() (struct{}, bool)
	stop     func()
	toWorker func(struct{}) bool

	// Communication engine (commpack.go, bufpool.go): every transfer's
	// dispatch state by Transfer.Slot, the number of open DR..SV sequences
	// (zero at block ends), and the per-peer message free lists.
	xfers     []xferSite
	openCount int
	sendPool  [][]*dataMsg // sendPool[slot]: recycled messages for sends to that neighbor
	retPool   [][]*dataMsg // retPool[slot]: unpacked messages awaiting return to that neighbor

	// Array-statement engine (kernel.go): the sites of array statements (by
	// ir.AssignArray.ID) and reduction partials (by ir.Reduce.ID), the
	// scratch arena that replaces per-execution temporaries, and the
	// row-evaluation context that binds the class's kernels to this
	// processor's data, scalars and origin.
	stmts   []site[*stmtPlan]
	reduces []site[*reduceKernel]
	arena   arena
	kctx    kctx

	// regions holds the literal regions as the block being run entered them
	// (site.go), by ir.RegionExpr.Slot.
	regions []regionSlot

	dynTransfers int
	messages     int
	bytesSent    int64
	reductions   int
	redSeq       int

	computeT vtime.Duration // statement execution (incl. control overhead)
	commT    vtime.Duration // communication software overhead
	waitT    vtime.Duration // blocked on data, tokens or reductions

	output strings.Builder

	rng uint64 // deterministic per-processor jitter stream

	// Observability (all nil/zero when disabled, so every recording point
	// is a single nil check on the fast path; see observe.go).
	tr         *trace.Buffer                 // virtual-time event ring
	prof       []profAcc                     // per-callsite communication profile, by Transfer.Slot
	cprof      map[*comm.Collective]*profAcc // per-callsite collective profile
	met        *procMetrics                  // metric instruments
	cpl        *critpath.Log                 // happens-before segment log
	engine     int64                         // trace engine code of the last array statement
	stmtLabels map[ir.Stmt]string

	// Scheduler observability (folded by runSched; parks is written only
	// by this processor's own coroutine, parksAverted by the worker
	// stepping it, mb.hi under mb.mu by deliverers).
	parks        [4]int64 // park requests by waitReason
	parksAverted int64    // requests whose event arrived before the commit
}

// jittered scales a compute cost by the machine's jitter factor, drawn
// from a per-processor xorshift stream so runs are exactly reproducible.
func (p *proc) jittered(d vtime.Duration) vtime.Duration {
	j := p.w.mach.Jitter
	if j == 0 || d == 0 {
		return d
	}
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	u := float64(p.rng>>11) / float64(1<<53) // [0, 1)
	return vtime.Duration(float64(d) * (1 + j*(2*u-1)))
}

// neighbor is one entry of a processor's displacement table: the peer's
// rank, its slot in this processor's per-neighbor arrays, and this
// processor's slot in the peer's (back, filled in by allocate once every
// processor exists). slot is -1 off the mesh edge. Slots number the
// existing neighbors in row-major (dr, dc) order; transfers only ever move
// data between mesh neighbors (geometry derives pairs from neighborDirs,
// whose displacements are in {-1,0,1}²), so at most eight exist.
type neighbor struct {
	rank, slot, back int
}

func newProc(w *world, rank int) *proc {
	r, c := w.mesh.Coord(rank)
	// fnCache holds interpreter closures only — for the statements the
	// kernel compiler rejects, or all of them under ForceInterpreter — so
	// compile makes it on first use: on scale_4096 the 32-entry map every
	// processor used to get here measured 22 MB of allocation and 8 MB of
	// peak RSS that most never touched.
	p := &proc{
		w: w, rank: rank, row: r, col: c,
		xfers:   make([]xferSite, w.plan.NumTransfers()),
		stmts:   make([]site[*stmtPlan], w.prog.NumArrayStmts),
		reduces: make([]site[*reduceKernel], w.prog.NumReduces),
		regions: make([]regionSlot, len(w.literals)),
		rng:     uint64(rank)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			nb := &p.nbr[dr+1][dc+1]
			nb.slot = -1
			if q, ok := w.mesh.Neighbor(rank, dr, dc); ok && (dr != 0 || dc != 0) {
				nb.rank, nb.slot = q, len(p.neighbors)
				p.neighbors = append(p.neighbors, q)
			}
		}
	}
	n := len(p.neighbors)
	p.sendPool = make([][]*dataMsg, n)
	p.retPool = make([][]*dataMsg, n)
	p.mb.data = make([][]*dataMsg, n)
	p.mb.dataHead = make([]int, n)
	p.mb.toks = make([][]readyTok, n)
	p.mb.toksHead = make([]int, n)
	p.mb.rets = make([][]*dataMsg, n)
	return p
}

// allocate builds this processor's fields (classify) and scalar store and
// binds them into its kernel context. locals is setup's scratch.
func (p *proc) allocate(locals []grid.Region) {
	w := p.w
	w.classify(p, locals)
	p.scalars = make([]float64, len(w.prog.Scalars))
	copy(p.scalars, w.configVals)
	p.kctx.env = scalarEnv{vals: p.scalars, p: p}
	p.kctx.data = make([][]float64, len(p.fields))
	for id, f := range p.fields {
		p.kctx.data[id] = f.Data()
	}
}

// meet completes this processor's neighbor table from the peers' and finds
// its neighbourhood class, once every processor is allocated.
func (p *proc) meet() {
	w := p.w
	for dr := range p.nbr {
		for dc := range p.nbr[dr] {
			if nb := &p.nbr[dr][dc]; nb.slot >= 0 {
				nb.back = w.procs[nb.rank].nbr[2-dr][2-dc].slot
			}
		}
	}
	w.classifyNbhd(p)
}

// rel moves a region of global indices to coordinates relative to this
// processor's block origin; abs moves one back.
func (p *proc) rel(reg grid.Region) grid.Region { return shiftDist(reg, p.kctx.org, -1) }
func (p *proc) abs(reg grid.Region) grid.Region { return shiftDist(reg, p.kctx.org, 1) }

// charge advances the virtual clock for compute-side work.
func (p *proc) charge(d vtime.Duration) {
	if p.cpl != nil {
		p.cpl.Compute(p.clock, d)
	}
	p.clock = p.clock.Add(d)
	p.computeT += d
}

// chargeComm advances the virtual clock for communication software
// overhead (the "exposed" cost of the paper).
func (p *proc) chargeComm(d vtime.Duration) {
	if p.cpl != nil {
		p.cpl.Comm(p.clock, d)
	}
	p.clock = p.clock.Add(d)
	p.commT += d
}

// waitUntil advances the clock to at least t, accounting the jump as wait
// time (blocking on data, rendezvous tokens or reduction results).
func (p *proc) waitUntil(t vtime.Time) {
	if t > p.clock {
		p.waitT += vtime.Duration(t - p.clock)
		p.clock = t
	}
}

// run executes the program body and folds this processor's statistics
// into the world. It is the body runSched gives every processor's
// coroutine; on panic the fold is skipped (the run is aborting anyway).
func (p *proc) run() {
	p.body(p.w.main)
	p.finish()
}

// procStat is one processor's contribution to the run's Result, folded
// into world.stats when its body completes. Completion order depends on
// scheduling; gather merges by the recorded rank so results do not.
type procStat struct {
	rank         int
	bd           Breakdown
	messages     int
	bytesSent    int64
	dynTransfers int
	reductions   int
}

// finish records this processor's statistics and releases what only its
// body used: the sites' and slots' tables, interpreter closures, message pools
// and the arena are dead once the body returns, and dropping them as each
// processor completes caps peak memory at high processor counts. What the
// sites pointed at belongs to the world's class caches and lives on for the
// processors still running. Fields, output and observability state survive
// — gather still reads them.
func (p *proc) finish() {
	w := p.w
	st := procStat{
		rank: p.rank,
		bd: Breakdown{
			Compute: p.computeT, Comm: p.commT, Wait: p.waitT,
			Finish: vtime.Duration(p.clock),
		},
		messages:     p.messages,
		bytesSent:    p.bytesSent,
		dynTransfers: p.dynTransfers,
		reductions:   p.reductions,
	}
	w.statsMu.Lock()
	w.stats = append(w.stats, st)
	w.statsMu.Unlock()
	p.xfers, p.stmts, p.reduces, p.regions, p.fnCache = nil, nil, nil, nil, nil
	p.sendPool, p.retPool, p.pending = nil, nil, nil
	if p.met != nil {
		p.met.reg.Gauge("arena_hiwater_doubles").Observe(int64(len(p.arena.buf)))
	}
	p.arena = arena{}
}

// seg is one segment of a statement list as setup bound it, for every
// processor to walk without a lookup: a planned basic block, or a control
// statement with its preheader transfers and the bodies it runs (then: an
// If's Then, a loop's or a called procedure's body; els: an If's Else).
type seg struct {
	bp        *comm.BlockPlan // nil for a control statement
	regions   []int           // the literal regions the block's sites resolve, by Slot (site.go)
	ctl       ir.Stmt
	pre       []*comm.Transfer
	then, els []seg
}

// bind segments a statement list and resolves every basic block to its
// plan and every control statement to its bound bodies. procs remembers
// procedure bodies (the subset forbids recursion).
func (w *world) bind(stmts []ir.Stmt, procs map[*ir.Proc][]seg) []seg {
	var out []seg
	for _, sg := range comm.SplitSegments(stmts) {
		if sg.Block != nil {
			b := seg{bp: w.plan.BlockFor(sg.Block[0])}
			if b.bp == nil {
				panic("rt: basic block missing from plan")
			}
			b.regions = literalsOf(b.bp.Stmts)
			out = append(out, b)
			continue
		}
		c := seg{ctl: sg.Control, pre: w.plan.Preheader(sg.Control)}
		switch s := sg.Control.(type) {
		case *ir.If:
			c.then, c.els = w.bind(s.Then, procs), w.bind(s.Else, procs)
		case *ir.Repeat:
			c.then = w.bind(s.Body, procs)
		case *ir.While:
			c.then = w.bind(s.Body, procs)
		case *ir.For:
			c.then = w.bind(s.Body, procs)
		case *ir.Call:
			body, ok := procs[s.Proc]
			if !ok {
				body = w.bind(s.Proc.Body, procs)
				procs[s.Proc] = body
			}
			c.then = body
		}
		out = append(out, c)
	}
	return out
}

// body interprets a bound statement list, alternating between planned
// basic blocks and control statements.
func (p *proc) body(segs []seg) {
	for i := range segs {
		if sg := &segs[i]; sg.bp != nil {
			p.block(sg)
		} else {
			p.control(sg)
		}
	}
}

// loopOverhead is the control cost charged per loop iteration or branch.
const loopOverhead = 200 * vtime.Nanosecond

func (p *proc) control(c *seg) {
	switch s := c.ctl.(type) {
	case *ir.If:
		p.charge(loopOverhead)
		if p.evalScalar(s.Cond) != 0 {
			p.body(c.then)
		} else {
			p.body(c.els)
		}
	case *ir.Repeat:
		p.execPreheader(c.pre)
		for {
			p.charge(loopOverhead)
			p.body(c.then)
			if p.evalScalar(s.Until) != 0 {
				return
			}
		}
	case *ir.While:
		p.execPreheader(c.pre)
		for {
			p.charge(loopOverhead)
			if p.evalScalar(s.Cond) == 0 {
				return
			}
			p.body(c.then)
		}
	case *ir.For:
		p.execPreheader(c.pre)
		lo := p.evalInt(s.Lo, "for bound")
		hi := p.evalInt(s.Hi, "for bound")
		step := 1
		if s.Down {
			step = -1 // downto: iterate from lo down to hi
		}
		for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
			p.charge(loopOverhead)
			p.scalars[s.Var.ID] = float64(v)
			p.body(c.then)
		}
	case *ir.Call:
		p.charge(loopOverhead)
		for i, a := range s.Args {
			p.scalars[s.Proc.Params[i].ID] = p.evalScalar(a)
		}
		p.body(c.then)
	default:
		panic(fmt.Sprintf("rt: unexpected control stmt %T", s))
	}
}

// execPreheader performs the loop's hoisted transfers (the cross-block
// extension): each runs its full synchronous IRONMAN sequence once,
// immediately before the loop is entered.
func (p *proc) execPreheader(hoisted []*comm.Transfer) {
	for _, t := range hoisted {
		for _, kind := range []comm.CallKind{comm.DR, comm.SR, comm.DN, comm.SV} {
			p.execCall(comm.Call{Kind: kind, T: t})
		}
	}
}

// block interprets one planned basic block: its literal regions are
// evaluated, then IRONMAN calls interleave with the statements at their
// scheduled positions.
func (p *proc) block(sg *seg) {
	p.enter(sg.regions)
	bp := sg.bp
	for pos, calls := range bp.Calls {
		for _, c := range calls {
			p.execCall(c)
		}
		if pos < len(bp.Stmts) {
			p.stmt(bp.Stmts[pos])
		}
	}
	if p.openCount != 0 {
		panic("rt: transfers left open at block end")
	}
}

func (p *proc) stmt(s ir.Stmt) {
	if p.tr == nil && p.met == nil && p.cpl == nil {
		p.stmtExec(s)
		return
	}
	var prevLabel, prevSite string
	if p.cpl != nil {
		prevLabel, prevSite = p.cpl.Context(p.stmtLabel(s), "")
	}
	start := p.clock
	p.engine = trace.EngineScalar
	p.stmtExec(s)
	if p.cpl != nil {
		p.cpl.Context(prevLabel, prevSite)
	}
	d := p.clock.Sub(start)
	if p.met != nil {
		p.met.stmtDur.Observe(int64(d))
		p.met.stmtsByEn[p.engine]++
	}
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindStmt, Start: start, Dur: d, Name: p.stmtLabel(s), A0: p.engine})
	}
}

func (p *proc) stmtExec(s ir.Stmt) {
	switch s := s.(type) {
	case *ir.AssignArray:
		p.assignArray(s)
	case *ir.AssignScalar:
		p.assignScalar(s)
	case *ir.Write:
		p.write(s)
	default:
		panic(fmt.Sprintf("rt: unexpected straight-line stmt %T", s))
	}
}

// waitFor advances the clock to at least t like waitUntil, additionally
// recording a non-empty blocked interval as a wait event and a wait-
// duration observation. The runtime's blocking points (message data,
// rendezvous tokens, reduction results) all come through here.
func (p *proc) waitFor(t vtime.Time, what string) {
	if p.tr == nil && p.met == nil {
		p.waitUntil(t)
		return
	}
	start := p.clock
	p.waitUntil(t)
	d := p.clock.Sub(start)
	if d <= 0 {
		return
	}
	if p.met != nil {
		p.met.waitDur.Observe(int64(d))
	}
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindWait, Start: start, Dur: d, Name: what})
	}
}

// waitEdge is waitFor plus the happens-before edge for the critical-path
// log: the wait was ended by a message from rank `from` that departed its
// sender at virtual time sendT. The runtime's three blocking points map
// their unblocking events here — data messages (execDN), rendezvous
// ready tokens (execSR) and collective hops (allreduce).
func (p *proc) waitEdge(t vtime.Time, what string, reason critpath.Reason, from int, sendT vtime.Time) {
	if p.cpl == nil {
		p.waitFor(t, what)
		return
	}
	start := p.clock
	p.waitFor(t, what)
	if d := p.clock.Sub(start); d > 0 {
		p.cpl.Wait(start, d, reason, from, sendT)
	}
}

func (p *proc) assignArray(s *ir.AssignArray) {
	w := p.w
	pl := p.planFor(s)
	if pl.size > 0 {
		if pl.k != nil {
			p.engine = trace.EngineKernel
			pl.k.run(p)
			if p.met != nil {
				p.met.countElems(pl.k.L, pl.size)
			}
		} else {
			p.engine = trace.EngineInterp
			p.assignArrayInterp(s, p.fields[s.LHS.ID], p.abs(pl.local), pl.size)
		}
	}
	p.charge(w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(pl.size)*int64(s.Flops))*w.mach.OpTime))
}

// assignArrayInterp is the closure-interpreter execution of an array
// assignment: the generic fallback for statements the kernel compiler
// rejects and the differential-testing oracle (Config.ForceInterpreter).
func (p *proc) assignArrayInterp(s *ir.AssignArray, f *field.Field, local grid.Region, size int) {
	fn := p.compile(s.RHS)
	// Whole-array semantics: the RHS is fully evaluated before the
	// store, so statements like A := A@east are well defined.
	m := p.arena.mark()
	tmp := p.arena.alloc(size)[:0]
	field.ForEach(local, func(i, j, k int) { tmp = append(tmp, fn(i, j, k)) })
	n := 0
	field.ForEach(local, func(i, j, k int) { f.Set(i, j, k, tmp[n]); n++ })
	p.arena.release(m)
}

func (p *proc) assignScalar(s *ir.AssignScalar) {
	if !s.HasReduce {
		p.scalars[s.LHS.ID] = p.evalScalar(s.RHS)
		p.charge(vtime.Duration(s.Flops) * p.w.mach.OpTime)
		return
	}
	local := p.cls.clip(p.here(&s.Region))
	size := local.Size()
	p.scalars[s.LHS.ID] = p.evalWithReduce(s.RHS, &s.Region, local)
	p.charge(p.w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(size)*int64(s.Flops))*p.w.mach.OpTime))
}

// evalWithReduce evaluates a scalar RHS that may contain reductions; each
// reduction computes a local partial over this processor's part (local,
// relative to the block origin) of the statement region re and then
// performs a global combine.
func (p *proc) evalWithReduce(e ir.Expr, re *ir.RegionExpr, local grid.Region) float64 {
	switch e := e.(type) {
	case *ir.Reduce:
		var acc float64
		if k := p.reduceKernel(e, re, local); k != nil {
			acc = k.run(p)
			if p.met != nil {
				p.met.countElems(k.L, local.Size())
			}
		} else {
			fn := p.compile(e.X)
			acc = e.Op.Identity()
			field.ForEach(p.abs(local), func(i, j, k int) { acc = e.Op.Combine(acc, fn(i, j, k)) })
		}
		return p.allreduce(e, acc)
	case *ir.Unary:
		return evalUnary(e.Op, p.evalWithReduce(e.X, re, local))
	case *ir.Binary:
		x := p.evalWithReduce(e.X, re, local)
		y := p.evalWithReduce(e.Y, re, local)
		return evalBinary(e.Op, x, y)
	case *ir.Intrinsic:
		var args [2]float64 // ir.Lower checks arities: one or two arguments
		for i, a := range e.Args {
			args[i] = p.evalWithReduce(a, re, local)
		}
		return evalIntrinsic(e.Fn, args[:len(e.Args)])
	default:
		return p.evalScalar(e)
	}
}

func (p *proc) write(s *ir.Write) {
	p.charge(loopOverhead)
	if p.rank != 0 {
		// Arguments still evaluate (replicated scalar computation).
		for _, a := range s.Args {
			if _, ok := a.(*ir.Str); !ok {
				p.evalScalar(a)
			}
		}
		return
	}
	for _, a := range s.Args {
		if str, ok := a.(*ir.Str); ok {
			p.output.WriteString(str.Val)
			continue
		}
		fmt.Fprintf(&p.output, "%g", p.evalScalar(a))
	}
	p.output.WriteByte('\n')
}

// evalScalar evaluates a pure scalar expression (no array references)
// against this processor's scalars.
func (p *proc) evalScalar(e ir.Expr) float64 { return p.kctx.env.eval(e) }

func (p *proc) evalInt(e ir.Expr, what string) int {
	v := p.evalScalar(e)
	if v != math.Trunc(v) {
		panic(fmt.Sprintf("rt: %s is not an integer: %g", what, v))
	}
	return int(v)
}
