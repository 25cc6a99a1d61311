package rt

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"commopt/internal/comm"
	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
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
	// into; home is the worker whose run queue it joins when woken.
	mb       mbox
	home     int
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

	// Array-statement engine (kernel.go): the scratch arena that replaces
	// per-execution temporaries, and the row-evaluation context that binds
	// the class's kernels to this processor's data, scalars and origin.
	arena arena
	kctx  kctx

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

	// Counters the metrics report folds in: schedule lookups and literal
	// regions entered by outcome (site.go), kernel elements in Go and in wide
	// row loops, and the arena's size when the body finished.
	caches       [len(cacheOutcomes)]int64
	regionCounts [len(slotOutcomes)]int64
	elems        [2]int64
	arenaHi      int

	obs    *obsLog // nil unless the run observes (observe.go)
	engine uint8   // engine of the statement executing: engineScalar or engineKernel

	// Scheduler observability (folded by runSched; parks and mbHi are
	// written only by this processor's own coroutine, parksAverted by the
	// worker stepping it).
	parks        [4]int64 // park requests by waitReason
	parksAverted int64    // requests whose event arrived before the commit
	mbHi         int      // deepest queue this processor's deliveries left a peer's mailbox at
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
	p := &proc{
		w: w, rank: rank, row: r, col: c,
		xfers:   make([]xferSite, w.plan.NumTransfers()),
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
	p.mb.slots = make([]slotBox, n)
	return p
}

// allocate carves this classified processor's fields off the front of
// free, by ArraySym.ID what is left of each array's slab, builds its scalar
// store and binds them into its kernel context.
func (p *proc) allocate(free [][]float64) {
	w := p.w
	p.fields = make([]*field.Field, len(free))
	p.kctx.data = make([][]float64, len(free))
	for _, a := range w.prog.Arrays {
		f := field.New(a.Name, p.abs(p.cls.locals[a.ID]), a.Ghost, free[a.ID])
		free[a.ID] = free[a.ID][len(f.Data()):]
		p.fields[a.ID], p.kctx.data[a.ID] = f, f.Data()
	}
	if p.cls.fields == nil {
		p.cls.fields = p.fields
	}
	p.scalars = make([]float64, len(w.prog.Scalars))
	copy(p.scalars, w.configVals)
	p.kctx.scalars = p.scalars
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
	if p.obs != nil {
		p.obs.charge(evCompute, d)
	}
	p.clock = p.clock.Add(d)
	p.computeT += d
}

// chargeComm advances the virtual clock for communication software
// overhead (the "exposed" cost of the paper).
func (p *proc) chargeComm(d vtime.Duration) {
	if p.obs != nil {
		p.obs.charge(evComm, d)
	}
	p.clock = p.clock.Add(d)
	p.commT += d
}

// waitFor advances the clock to at least t, accounting the jump as wait
// time, ended by a message from rank `from` that departed its sender at
// virtual time sendT. The runtime's three blocking points all come through
// here: data messages (execDN), rendezvous ready tokens (execSR) and
// collective hops (allreduce).
func (p *proc) waitFor(t vtime.Time, reason waitReason, from int, sendT vtime.Time) {
	if t <= p.clock {
		return
	}
	d := t.Sub(p.clock)
	if p.obs != nil {
		p.obs.add(event{kind: evWait, d: d, v: int64(sendT), peer: int32(from), x: uint8(reason)})
	}
	p.waitT += d
	p.clock = t
}

// run executes the program body and releases what only the body used. It
// is the body runSched gives every processor's coroutine; on panic the
// release is skipped (the run is aborting anyway).
func (p *proc) run() {
	p.body(p.w.main)
	p.finish()
}

// finish releases what only this processor's body used: the transfer
// sites' and slots' tables, message pools and the arena are dead once the
// body returns, and dropping them as each processor completes caps peak
// memory at high processor counts. What the sites pointed at belongs to the
// world's class caches and lives on for the processors still running.
// Fields, clocks, counters, output and observability state survive —
// gather consumes them.
func (p *proc) finish() {
	p.xfers, p.regions = nil, nil
	p.sendPool, p.retPool, p.pending = nil, nil, nil
	p.arenaHi = len(p.arena.buf)
	p.arena = arena{}
}

// seg is one segment of a statement list as setup bound it, for every
// processor to walk without a lookup: a planned basic block, or a control
// statement with its preheader transfers and the bodies it runs (then: an
// If's Then, a loop's or a called procedure's body; els: an If's Else).
type seg struct {
	bp        *comm.BlockPlan // nil for a control statement
	regions   []int           // the literal regions the block's statements and transfers resolve, by Slot (site.go)
	idle      *idleEffect     // what the block does where none of them reaches; nil if the walk must run
	ctl       ir.Stmt
	pre       []*comm.Transfer
	then, els []seg
}

// idleEffect is all a block does on a processor that none of its literal
// regions reaches, when every statement is an array statement over one of
// them and every transfer lies under one: each statement charges its
// overhead for no elements (jittered(0) draws nothing), and each transfer
// resolves to its empty schedule, which only an unconditionally
// synchronizing library acts on beyond counting its SR.
type idleEffect struct {
	compute   vtime.Duration
	transfers int
}

// idleOf returns block b's idle effect, or nil when the block has one
// statement or transfer that its literal regions do not govern.
func (w *world) idleOf(b *seg) *idleEffect {
	if len(b.regions) == 0 || w.lib.UnconditionalSynch {
		return nil
	}
	for _, s := range b.bp.Stmts {
		if a, ok := s.(*ir.AssignArray); !ok || a.Region.Sym != nil {
			return nil
		}
	}
	e := &idleEffect{compute: vtime.Duration(len(b.bp.Stmts)) * w.mach.StmtOverhead}
	for _, calls := range b.bp.Calls {
		for _, c := range calls {
			if re := &c.T.Region; re.Sym != nil || !slices.Contains(b.regions, re.Slot) {
				return nil
			}
			if c.Kind == comm.SR {
				e.transfers++
			}
		}
	}
	return e
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
			b.idle = w.idleOf(&b)
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
		lo := p.evalInt(s.Lo, s.Pos, "for bound")
		hi := p.evalInt(s.Hi, s.Pos, "for bound")
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
// scheduled positions. Where none of the regions reaches the processor, a
// block with an idle effect is that effect, unless an observer records the
// walk.
func (p *proc) block(sg *seg) {
	if !p.enter(sg.regions) && sg.idle != nil && p.obs == nil {
		p.charge(sg.idle.compute)
		p.dynTransfers += sg.idle.transfers
		return
	}
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
	if p.obs == nil {
		p.stmtExec(s)
		return
	}
	prev := p.obs.ctx
	p.obs.ctx = ctx{label: p.w.obs.stmts[s]}
	start := p.clock
	p.engine = engineScalar
	p.stmtExec(s)
	p.obs.add(event{kind: evStmt, d: p.clock.Sub(start), x: p.engine})
	p.obs.ctx = prev
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

// assignArray runs the statement's kernel over the processor's part of its
// region that the block holds of the LHS, if any.
func (p *proc) assignArray(s *ir.AssignArray) {
	w, cl := p.w, p.cls
	local := p.part(&s.Region).Intersect(cl.locals[s.LHS.ID])
	size := local.Size()
	if size > 0 {
		p.engine = engineKernel
		w.kernels[s.ID][cl.id].run(p, local)
	}
	p.charge(w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(size)*int64(s.Flops))*w.mach.OpTime))
}

func (p *proc) assignScalar(s *ir.AssignScalar) {
	if !s.HasReduce {
		p.scalars[s.LHS.ID] = p.evalScalar(s.RHS)
		p.charge(vtime.Duration(s.Flops) * p.w.mach.OpTime)
		return
	}
	local := p.part(&s.Region)
	size := local.Size()
	p.scalars[s.LHS.ID] = p.evalWithReduce(s.RHS, local)
	p.charge(p.w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(size)*int64(s.Flops))*p.w.mach.OpTime))
}

// evalWithReduce evaluates a statement's RHS e, which may contain
// reductions; each reduction computes a local partial over this
// processor's part (local, relative to the block origin) of the statement's
// region and then performs a global combine.
func (p *proc) evalWithReduce(e ir.Expr, local grid.Region) float64 {
	switch e := e.(type) {
	case *ir.Reduce:
		acc := e.Op.Identity()
		if !local.Empty() {
			acc = p.w.partials[e.ID][p.cls.id].run(p, local)
		}
		return p.allreduce(e, acc)
	case *ir.Unary:
		return ir.EvalUnary(e.Op, p.evalWithReduce(e.X, local))
	case *ir.Binary:
		x := p.evalWithReduce(e.X, local)
		y := p.evalWithReduce(e.Y, local)
		return ir.EvalBinary(e.Op, x, y)
	case *ir.Intrinsic:
		var args [2]float64 // ir.Lower checks arities: one or two arguments
		for i, a := range e.Args {
			args[i] = p.evalWithReduce(a, local)
		}
		return e.Fn.Apply(args[:len(e.Args)])
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
func (p *proc) evalScalar(e ir.Expr) float64 { return ir.Eval(e, p.scalars) }

// evalInt evaluates a loop or region bound of the statement at pos, which
// must be an integer.
func (p *proc) evalInt(e ir.Expr, pos zpl.Pos, what string) int {
	v := p.evalScalar(e)
	if v != math.Trunc(v) {
		panic(replicated{zpl.Errorf(pos, "%s is not an integer: %g", what, v)})
	}
	return int(v)
}

// replicated is a program error every processor meets alike, at a value
// of the replicated scalars: the run error names no processor, so it reads
// the same at any worker count.
type replicated struct{ err *zpl.Error }
