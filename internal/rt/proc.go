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

	// Where the processor stands in the world's program (exec): the op it
	// runs next, its frame — each for loop's variable and bound and each
	// procedure's return pc, by the slot bind gave them — and the cursor of
	// the op it parked in.
	pc    int
	frame []int
	cur   cursor

	// Scheduler plumbing (sched.go): mb is the mailbox peers deliver events
	// into; home is the worker whose run queue it joins when woken; wait is
	// the park word an op that parked leaves for its worker to store.
	mb   mbox
	home int
	wait uint64

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
	// regions entered by outcome (site.go), kernel elements and the arena's
	// size when the body finished.
	caches       [len(cacheOutcomes)]int64
	regionCounts [len(slotOutcomes)]int64
	elems        int64
	arenaHi      int

	obs    *obsLog // nil unless the run observes (observe.go)
	engine uint8   // engine of the statement executing: engineScalar or engineKernel

	// Scheduler observability (folded by runSched; mbHi is written only
	// while this processor runs, parks and parksAverted by the worker
	// stepping it).
	parks        [4]int64 // parks by waitReason
	parksAverted int64    // parks whose event the worker found on its check
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
		frame:   make([]int, w.frame),
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

// cursor is what the op a processor parked in keeps to resume where it
// stopped (exec). Only three ops park — an SR waiting on a ready token, a DN
// waiting on data, and a reduction statement — and each field belongs to
// one of them, which resets it when the op completes.
type cursor struct {
	pair    int       // SR, DN: the pair the call waits on
	red     int       // a reduction statement: the rendezvous it waits in
	vals    []float64 // a reduction statement: its partials, then its results
	arrived bool      // rendezvous: this rank's arrival is on the board
	// An observed call or statement keeps its span open across a park: its
	// start clock, bytes sent by then, and the context it replaced.
	span  bool
	start vtime.Time
	bytes int64
	prev  ctx
}

// run runs the processor's program until it parks, reporting false, or
// halts, reporting true once it has released what only the program used.
// It is what runSched gives every processor; on panic the release is
// skipped (the run is aborting anyway).
func (p *proc) run() bool {
	if !p.exec() {
		return false
	}
	p.finish()
	return true
}

// finish releases what only this processor's program used: the transfer
// sites' and slots' tables, message pools and the arena are dead once it
// halts, and dropping them as each processor completes caps peak memory at
// high processor counts. What the sites pointed at belongs to the world's
// class caches and lives on for the processors still running. Fields,
// clocks, counters, output and observability state survive — gather
// consumes them.
func (p *proc) finish() {
	p.xfers, p.regions = nil, nil
	p.sendPool, p.retPool, p.pending = nil, nil, nil
	p.arenaHi = len(p.arena.buf)
	p.arena = arena{}
}

// op is one instruction of the world's program. Setup lowers the bound
// program once to one array of ops (world.bind), and every processor
// interprets it from its own pc (proc.exec). Control flow is jumps within
// the array. The subset forbids recursion, so no loop or procedure is ever
// active twice at once: each for loop keeps its variable and bound, and each
// procedure its return pc, in a frame slot of its own, and a processor needs
// no stack.
type op struct {
	kind opKind
	to   int          // the jump target
	slot int          // opFor, opLoop: the loop's first frame slot; opCall, opRet: the procedure's
	call comm.Call    // opXfer
	stmt ir.Stmt      // opStmt's statement; opFor's, opLoop's and opCall's control statement
	cond ir.Expr      // opBranch, opUntil
	blk  *block       // opEnter
	reds []*ir.Reduce // opStmt: a reduction statement's reductions, in evaluation order
}

type opKind uint8

const (
	opEnter  opKind = iota // enter a basic block's literal regions; its idle effect jumps past its opEnd
	opXfer                 // one IRONMAN call
	opStmt                 // one straight-line statement
	opEnd                  // a basic block's end: every DR..SV sequence closed
	opJump                 // jump
	opBranch               // charge an if or a while iteration; jump when the condition is 0
	opRepeat               // charge a repeat iteration
	opUntil                // jump back to the repeat body while the condition is 0
	opFor                  // evaluate a for loop's bounds into its frame slots, the variable a step short
	opLoop                 // step the variable; jump past the loop once it passes the bound, else charge and set it
	opCall                 // charge a call, pass its arguments, save the return pc and jump to the body
	opRet                  // jump to the saved return pc
	opHalt                 // the end of the main body
)

// block is what a basic block's enter op knows: the literal regions its
// statements and transfers resolve, by Slot (site.go), and what the block
// does where none of them reaches — nil if its ops must run there.
type block struct {
	regions []int
	idle    *idleEffect
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

// idleOf returns the idle effect of block bp, which resolves the literal
// regions `regions`, or nil when the block has one statement or transfer
// that those regions do not govern.
func (w *world) idleOf(bp *comm.BlockPlan, regions []int) *idleEffect {
	if len(regions) == 0 || w.lib.UnconditionalSynch {
		return nil
	}
	for _, s := range bp.Stmts {
		if a, ok := s.(*ir.AssignArray); !ok || a.Region.Sym != nil {
			return nil
		}
	}
	e := &idleEffect{compute: vtime.Duration(len(bp.Stmts)) * w.mach.StmtOverhead}
	for _, calls := range bp.Calls {
		for _, c := range calls {
			if re := &c.T.Region; re.Sym != nil || !slices.Contains(regions, re.Slot) {
				return nil
			}
			if c.Kind == comm.SR {
				e.transfers++
			}
		}
	}
	return e
}

// binder lowers a program to ops. A procedure's body is lowered once, where
// it is first called, behind a jump that the return from that call lands
// on; calls is the call op every call of a lowered procedure emits.
type binder struct {
	w     *world
	code  []op
	frame int // frame slots handed out
	calls map[*ir.Proc]op
}

// bind lowers the program body to the world's op array, every basic block
// resolved to its plan.
func (w *world) bind(main []ir.Stmt) {
	b := &binder{w: w, calls: map[*ir.Proc]op{}}
	b.list(main)
	b.emit(op{kind: opHalt})
	w.code, w.frame = b.code, b.frame
}

// emit appends o and returns its index.
func (b *binder) emit(o op) int {
	b.code = append(b.code, o)
	return len(b.code) - 1
}

// land points op at's jump to the next op emitted.
func (b *binder) land(at int) { b.code[at].to = len(b.code) }

// list lowers a statement list, alternating between planned basic blocks
// and control statements.
func (b *binder) list(stmts []ir.Stmt) {
	for _, sg := range comm.SplitSegments(stmts) {
		if sg.Block != nil {
			b.block(b.w.plan.BlockFor(sg.Block[0]))
			continue
		}
		switch s := sg.Control.(type) {
		case *ir.If:
			at := b.emit(op{kind: opBranch, cond: s.Cond})
			b.list(s.Then)
			if len(s.Else) > 0 {
				j := b.emit(op{kind: opJump})
				b.land(at)
				b.list(s.Else)
				at = j
			}
			b.land(at)
		case *ir.Repeat:
			b.preheader(s)
			top := b.emit(op{kind: opRepeat})
			b.list(s.Body)
			b.emit(op{kind: opUntil, cond: s.Until, to: top})
		case *ir.While:
			b.preheader(s)
			top := b.emit(op{kind: opBranch, cond: s.Cond})
			b.list(s.Body)
			b.emit(op{kind: opJump, to: top})
			b.land(top)
		case *ir.For:
			b.preheader(s)
			b.emit(op{kind: opFor, stmt: s, slot: b.frame})
			top := b.emit(op{kind: opLoop, stmt: s, slot: b.frame})
			b.frame += 2
			b.list(s.Body)
			b.emit(op{kind: opJump, to: top})
			b.land(top)
		case *ir.Call:
			if o, ok := b.calls[s.Proc]; ok {
				o.stmt = s
				b.emit(o)
				continue
			}
			o := op{kind: opCall, stmt: s, slot: b.frame, to: len(b.code) + 2}
			b.frame++
			b.calls[s.Proc] = o
			b.emit(o)
			j := b.emit(op{kind: opJump})
			b.list(s.Proc.Body)
			b.emit(op{kind: opRet, slot: o.slot})
			b.land(j)
		default:
			panic(fmt.Sprintf("rt: unexpected control stmt %T", s))
		}
	}
}

// preheader lowers loop s's hoisted transfers (the cross-block extension):
// each runs its full synchronous IRONMAN sequence once, immediately before
// the loop is entered.
func (b *binder) preheader(s ir.Stmt) {
	for _, t := range b.w.plan.Preheader(s) {
		for _, kind := range []comm.CallKind{comm.DR, comm.SR, comm.DN, comm.SV} {
			b.emit(op{kind: opXfer, call: comm.Call{Kind: kind, T: t}})
		}
	}
}

// block lowers one planned basic block: an enter op, then its IRONMAN calls
// interleaved with its statements at their scheduled positions, then an
// end op.
func (b *binder) block(bp *comm.BlockPlan) {
	if bp == nil {
		panic("rt: basic block missing from plan")
	}
	blk := &block{regions: literalsOf(bp.Stmts)}
	blk.idle = b.w.idleOf(bp, blk.regions)
	at := b.emit(op{kind: opEnter, blk: blk})
	for pos, calls := range bp.Calls {
		for _, c := range calls {
			b.emit(op{kind: opXfer, call: c})
		}
		if pos < len(bp.Stmts) {
			o := op{kind: opStmt, stmt: bp.Stmts[pos]}
			if a, ok := o.stmt.(*ir.AssignScalar); ok && a.HasReduce {
				ir.EachReduce(a.RHS, func(e *ir.Reduce) { o.reds = append(o.reds, e) })
			}
			b.emit(o)
		}
	}
	b.emit(op{kind: opEnd})
	b.land(at)
}

// loopOverhead is the control cost charged per loop iteration or branch.
const loopOverhead = 200 * vtime.Nanosecond

// exec interprets the world's program from the processor's pc until it
// halts, reporting true, or until an op parks, reporting false with its
// wait in p.wait: the op stays at pc, and resumes from the cursor when
// a worker runs the processor again. Where none of a block's regions
// reaches the processor, a block with an idle effect is that effect, unless
// an observer records the walk.
func (p *proc) exec() bool {
	code := p.w.code
	for {
		o := &code[p.pc]
		next := p.pc + 1
		switch o.kind {
		case opEnter:
			if b := o.blk; !p.enter(b.regions) && b.idle != nil && p.obs == nil {
				p.charge(b.idle.compute)
				p.dynTransfers += b.idle.transfers
				next = o.to
			}
		case opXfer:
			if !p.execCall(o.call) {
				return false
			}
		case opStmt:
			if !p.stmt(o) {
				return false
			}
		case opEnd:
			if p.openCount != 0 {
				panic("rt: transfers left open at block end")
			}
		case opJump:
			next = o.to
		case opBranch:
			p.charge(loopOverhead)
			if p.evalScalar(o.cond) == 0 {
				next = o.to
			}
		case opRepeat:
			p.charge(loopOverhead)
		case opUntil:
			if p.evalScalar(o.cond) == 0 {
				next = o.to
			}
		case opFor:
			s := o.stmt.(*ir.For)
			p.frame[o.slot] = p.evalInt(s.Lo, s.Pos, "for bound") - forStep(s)
			p.frame[o.slot+1] = p.evalInt(s.Hi, s.Pos, "for bound")
		case opLoop:
			s := o.stmt.(*ir.For)
			p.frame[o.slot] += forStep(s)
			if v, hi := p.frame[o.slot], p.frame[o.slot+1]; s.Down && v < hi || !s.Down && v > hi {
				next = o.to
			} else {
				p.charge(loopOverhead)
				p.scalars[s.Var.ID] = float64(v)
			}
		case opCall:
			s := o.stmt.(*ir.Call)
			p.charge(loopOverhead)
			for i, a := range s.Args {
				p.scalars[s.Proc.Params[i].ID] = p.evalScalar(a)
			}
			p.frame[o.slot] = next
			next = o.to
		case opRet:
			next = p.frame[o.slot]
		case opHalt:
			return true
		}
		p.pc = next
	}
}

// forStep is a for loop's step: downto iterates from lo down to hi.
func forStep(s *ir.For) int {
	if s.Down {
		return -1
	}
	return 1
}

// stmt runs one statement op, reporting false where it parks. An observed
// statement is a span in the statement's context, open across a park.
func (p *proc) stmt(o *op) bool {
	if p.obs == nil {
		return p.stmtExec(o)
	}
	if !p.cur.span {
		p.cur.span, p.cur.prev, p.cur.start = true, p.obs.ctx, p.clock
		p.obs.ctx = ctx{label: p.w.obs.stmts[o.stmt]}
		p.engine = engineScalar
	}
	if !p.stmtExec(o) {
		return false
	}
	p.obs.add(event{kind: evStmt, d: p.clock.Sub(p.cur.start), x: p.engine})
	p.obs.ctx, p.cur.span = p.cur.prev, false
	return true
}

func (p *proc) stmtExec(o *op) bool {
	switch s := o.stmt.(type) {
	case *ir.AssignArray:
		p.assignArray(s)
	case *ir.AssignScalar:
		if o.reds != nil {
			return p.reduce(s, o.reds)
		}
		p.scalars[s.LHS.ID] = p.evalScalar(s.RHS)
		p.charge(vtime.Duration(s.Flops) * p.w.mach.OpTime)
	case *ir.Write:
		p.write(s)
	default:
		panic(fmt.Sprintf("rt: unexpected straight-line stmt %T", s))
	}
	return true
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

// reduce runs reduction statement s, whose RHS holds the reductions reds in
// evaluation order, reporting false where it parks. Its first entry computes
// every reduction's partial over this processor's part (relative to the
// block origin) of the statement's region: a partial charges nothing and
// touches nothing shared, so computing all of them first moves no clock.
// Then each reduction combines its partial across all processors, the cursor
// counting those done across parks, and the RHS evaluates with the results.
func (p *proc) reduce(s *ir.AssignScalar, reds []*ir.Reduce) bool {
	local := p.part(&s.Region)
	c := &p.cur
	if len(c.vals) == 0 {
		for _, e := range reds {
			acc := e.Op.Identity()
			if !local.Empty() {
				acc = p.w.partials[e.ID][p.cls.id].run(p, local)
			}
			c.vals = append(c.vals, acc)
		}
	}
	for ; c.red < len(reds); c.red++ {
		v, ok := p.allreduce(reds[c.red], c.vals[c.red])
		if !ok {
			return false
		}
		c.vals[c.red] = v
	}
	k := 0
	p.scalars[s.LHS.ID] = p.evalReduced(s.RHS, &k)
	c.vals, c.red = c.vals[:0], 0
	p.charge(p.w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(local.Size())*int64(s.Flops))*p.w.mach.OpTime))
	return true
}

// evalReduced evaluates e, whose reductions the cursor holds the results of:
// the k-th reduction e meets, in evaluation order, is p.cur.vals[k].
func (p *proc) evalReduced(e ir.Expr, k *int) float64 {
	switch e := e.(type) {
	case *ir.Reduce:
		*k++
		return p.cur.vals[*k-1]
	case *ir.Unary:
		return ir.EvalUnary(e.Op, p.evalReduced(e.X, k))
	case *ir.Binary:
		x := p.evalReduced(e.X, k)
		y := p.evalReduced(e.Y, k)
		return ir.EvalBinary(e.Op, x, y)
	case *ir.Intrinsic:
		var args [2]float64 // ir.Lower checks arities: one or two arguments
		for i, a := range e.Args {
			args[i] = p.evalReduced(a, k)
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
