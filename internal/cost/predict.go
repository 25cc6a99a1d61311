package cost

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// Prediction is the closed-form communication forecast of one
// (program, plan, configuration) triple. For statically predictable
// programs Messages, BytesSent, DynamicTransfers, Reductions,
// PerProcComm and PerProcMsgs equal the runtime's measured values
// exactly; blocking waits are jitter- and schedule-dependent and
// deliberately not modeled (see DESIGN.md §15 for the tolerance
// statement).
type Prediction struct {
	Mesh grid.Mesh

	Messages         int   // messages, all processors (transfers + collective hops)
	BytesSent        int64 // payload bytes, all processors
	DynamicTransfers int   // transfer call sites executed per processor
	Reductions       int   // global reductions per processor

	// Collective is the allreduce algorithm the prediction priced — the
	// resolution of Config.Collective through collective.Choose, which is
	// exactly what the runtime executes. Auto when the program performs no
	// reductions or runs on one processor.
	Collective collective.Alg

	// PerProcComm is each processor's communication software overhead
	// (the paper's "exposed" cost), by rank, reduction hops included.
	// PerProcMsgs is each processor's sent-message count (transfer
	// messages plus collective hops), matching rt's Result.PerProcMsgs.
	PerProcComm []vtime.Duration
	PerProcMsgs []int

	// ReductionComm is the critical-path share of the overhead charged by
	// global reductions: for each reduction, the largest per-rank hop
	// overhead of the selected algorithm's schedule. Under non-star
	// algorithms ranks play different roles, so per-rank reduction charges
	// vary; this reports the worst rank's total.
	ReductionComm vtime.Duration

	// Sites breaks the totals down per plan transfer and per collective
	// (reduction) site, sorted by source position: the per-statement half
	// of the cost model. Site messages and bytes sum exactly to Messages
	// and BytesSent.
	Sites []SiteCost
}

// CommTime returns the critical-path communication overhead: the largest
// per-processor exposed cost.
func (p *Prediction) CommTime() vtime.Duration {
	var m vtime.Duration
	for _, d := range p.PerProcComm {
		if d > m {
			m = d
		}
	}
	return m
}

// SiteCost is the predicted cost of one plan transfer, attributed to its
// earliest source callsite.
type SiteCost struct {
	Pos     zpl.Pos
	Label   string // arrays@offset, e.g. "U,V@[0,1,0]"
	Hoisted bool

	Executions int64          // times the transfer's SR executed
	Messages   int64          // messages it injected, all processors
	Bytes      int64          // payload bytes, all processors
	Comm       vtime.Duration // overhead charged, summed over processors
}

// maxLoopIters bounds a single loop statement's statically folded
// iterations, so a condition that never flips reports an error instead
// of walking forever.
const maxLoopIters = 10_000_000

// Predict computes the closed-form communication forecast of running
// prog under plan with the given configuration. It returns an error
// wrapping ErrNotStatic when some control decision depends on computed
// array data.
func Predict(prog *ir.Program, plan *comm.Plan, cfg Config) (*Prediction, error) {
	w, err := analyze(prog, plan, cfg)
	if err != nil {
		return nil, err
	}
	return w.prediction(), nil
}

type siteAcc struct {
	execs int64
	msgs  int64
	bytes int64
	comm  vtime.Duration
}

// walker is the abstract SPMD interpreter: one walk of the structured
// control flow stands for every processor, because scalar state is
// replicated identically across ranks (reductions broadcast one value;
// loop variables and assignments fold the same everywhere).
type walker struct {
	prog *ir.Program
	plan *comm.Plan
	lay  *layout
	lib  *machine.Lib

	vals    []float64 // by ScalarSym.ID
	unknown []bool    // by ScalarSym.ID: the value depends on array data
	shapes  map[shapeKey]*shape
	open    map[*comm.Transfer]*shape
	segs    map[*ir.Stmt][]comm.Segment

	msgs     int
	bytes    int64
	dyn      int
	reds     int
	comm     []vtime.Duration
	procMsgs []int
	sites    map[*comm.Transfer]*siteAcc
	csites   map[*comm.Collective]*siteAcc

	// Collective pricing, resolved once per walk: the algorithm, its
	// per-rank charges for one reduction (nil when the program has no
	// reductions or runs on one processor, where the runtime charges
	// nothing), and the worst rank's share (redCrit).
	collAlg collective.Alg
	redProf []collective.RankCost
	redCrit vtime.Duration
	redComm vtime.Duration
}

// analyze builds the layout and walks the whole program, accumulating
// every call's cost. It is shared by Predict and the shape-dependent
// half of Check.
func analyze(prog *ir.Program, plan *comm.Plan, cfg Config) (*walker, error) {
	if plan.Program != prog {
		return nil, fmt.Errorf("cost: plan was built for a different program")
	}
	lib, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	lay, err := newLayout(prog, cfg)
	if err != nil {
		return nil, err
	}
	w := &walker{
		prog: prog, plan: plan, lay: lay, lib: lib,
		vals:     slices.Clone(lay.Vals),
		unknown:  make([]bool, len(prog.Scalars)),
		shapes:   map[shapeKey]*shape{},
		open:     map[*comm.Transfer]*shape{},
		segs:     map[*ir.Stmt][]comm.Segment{},
		comm:     make([]vtime.Duration, lay.mesh.Size()),
		procMsgs: make([]int, lay.mesh.Size()),
		sites:    map[*comm.Transfer]*siteAcc{},
		csites:   map[*comm.Collective]*siteAcc{},
	}
	// Choose the collective schedule exactly as rt's setup does: only
	// when the plan carries reduction sites and the mesh is bigger than a
	// lone processor (which pays nothing) — so a forced-but-ineligible
	// algorithm errors in the same cases the runtime would.
	if len(plan.Collectives) > 0 && lay.mesh.Size() > 1 {
		coll, err := collective.Choose(cfg.Collective, lib, lay.mesh)
		if err != nil {
			return nil, err
		}
		w.collAlg = coll.Alg
		w.redProf = coll.Profile(lib)
		for _, rc := range w.redProf {
			if rc.Comm > w.redCrit {
				w.redCrit = rc.Comm
			}
		}
	}
	if err := w.body(prog.Main.Body); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walker) prediction() *Prediction {
	pred := &Prediction{
		Mesh:             w.lay.mesh,
		Messages:         w.msgs,
		BytesSent:        w.bytes,
		DynamicTransfers: w.dyn,
		Reductions:       w.reds,
		Collective:       w.collAlg,
		PerProcComm:      w.comm,
		PerProcMsgs:      w.procMsgs,
		ReductionComm:    w.redComm,
	}
	for t, acc := range w.sites {
		pos := zpl.Pos{}
		if len(t.Sites) > 0 {
			pos = t.Sites[0].Pos
		}
		pred.Sites = append(pred.Sites, SiteCost{
			Pos: pos, Label: t.Label(), Hoisted: t.Hoisted,
			Executions: acc.execs, Messages: acc.msgs, Bytes: acc.bytes, Comm: acc.comm,
		})
	}
	for c, acc := range w.csites {
		pred.Sites = append(pred.Sites, SiteCost{
			Pos: c.Pos, Label: c.Op.String() + " (" + w.collAlg.String() + ")",
			Executions: acc.execs, Messages: acc.msgs, Bytes: acc.bytes, Comm: acc.comm,
		})
	}
	sort.Slice(pred.Sites, func(i, j int) bool {
		a, b := pred.Sites[i], pred.Sites[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Label < b.Label
	})
	return pred
}

func (w *walker) segments(stmts []ir.Stmt) []comm.Segment {
	if len(stmts) == 0 {
		return nil
	}
	if s, ok := w.segs[&stmts[0]]; ok {
		return s
	}
	s := comm.SplitSegments(stmts)
	w.segs[&stmts[0]] = s
	return s
}

func (w *walker) body(stmts []ir.Stmt) error {
	for _, seg := range w.segments(stmts) {
		if seg.Block != nil {
			if err := w.block(seg.Block); err != nil {
				return err
			}
			continue
		}
		if err := w.control(seg.Control); err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) block(stmts []ir.Stmt) error {
	bp := w.plan.BlockFor(stmts[0])
	if bp == nil {
		return fmt.Errorf("cost: basic block missing from plan")
	}
	for pos := 0; pos <= len(stmts); pos++ {
		for _, c := range bp.Calls[pos] {
			if err := w.call(c); err != nil {
				return err
			}
		}
		if pos < len(stmts) {
			if err := w.stmt(stmts[pos]); err != nil {
				return err
			}
		}
	}
	if len(w.open) != 0 {
		return fmt.Errorf("cost: transfers left open at block end")
	}
	return nil
}

// call accounts one IRONMAN call. The transfer's statement region is
// resolved at the first call of its DR..SV sequence and held until SV,
// exactly like the runtime's open-transfer tracking, so literal regions
// that read loop variables resolve with the values in scope at that
// point.
func (w *walker) call(c comm.Call) error {
	sh, ok := w.open[c.T]
	if !ok {
		reg, err := w.evalRegion(c.T.Region)
		if err != nil {
			return err
		}
		key := shapeKey{t: c.T, reg: reg}
		sh = w.shapes[key]
		if sh == nil {
			sh = buildShape(w.lay, w.lib, c.T, reg)
			w.shapes[key] = sh
		}
		w.open[c.T] = sh
	}
	acc := w.sites[c.T]
	if acc == nil {
		acc = &siteAcc{}
		w.sites[c.T] = acc
	}
	cost := sh.callCost(c.Kind)
	for r, d := range cost {
		w.comm[r] += d
		acc.comm += d
	}
	switch c.Kind {
	case comm.SR:
		w.dyn++
		acc.execs++
		w.msgs += sh.msgs
		w.bytes += sh.bytes
		acc.msgs += int64(sh.msgs)
		acc.bytes += sh.bytes
		for r, m := range sh.rankMsgs {
			w.procMsgs[r] += m
		}
	case comm.SV:
		delete(w.open, c.T)
	}
	return nil
}

func (w *walker) stmt(s ir.Stmt) error {
	switch s := s.(type) {
	case *ir.AssignArray:
		// Array state is never consulted by the walk; the statement's
		// communication happened through its block's calls.
		return nil
	case *ir.AssignScalar:
		if !s.HasReduce {
			w.assign(s.LHS, s.RHS)
			return nil
		}
		w.countReduces(s.RHS)
		w.unknown[s.LHS.ID] = true // value depends on array data
		return nil
	case *ir.Write:
		return nil
	}
	return fmt.Errorf("cost: unexpected straight-line stmt %T", s)
}

// countReduces charges every Reduce node of a scalar RHS, mirroring the
// runtime's evalWithReduce recursion: each reduction charges each rank
// the hop overhead of its role in the chosen schedule (its Profile), and
// its hops count as messages and bytes — the identical per-hop
// accounting p.allreduce performs.
func (w *walker) countReduces(e ir.Expr) {
	switch e := e.(type) {
	case *ir.Reduce:
		w.reds++
		if w.redProf == nil {
			return // no peers: the runtime's P==1 early return charges nothing
		}
		acc := w.csites[w.plan.CollectiveFor(e)]
		if acc == nil {
			acc = &siteAcc{}
			w.csites[w.plan.CollectiveFor(e)] = acc
		}
		acc.execs++
		for r, rc := range w.redProf {
			w.comm[r] += rc.Comm
			w.procMsgs[r] += rc.Msgs
			w.msgs += rc.Msgs
			w.bytes += rc.Bytes
			acc.msgs += int64(rc.Msgs)
			acc.bytes += rc.Bytes
			acc.comm += rc.Comm
		}
		w.redComm += w.redCrit
	case *ir.Unary:
		w.countReduces(e.X)
	case *ir.Binary:
		w.countReduces(e.X)
		w.countReduces(e.Y)
	case *ir.Intrinsic:
		for _, a := range e.Args {
			w.countReduces(a)
		}
	}
}

func (w *walker) control(s ir.Stmt) error {
	switch s := s.(type) {
	case *ir.If:
		cond, err := w.needVal(s.Cond, s.Pos, "if condition")
		if err != nil {
			return err
		}
		if cond != 0 {
			return w.body(s.Then)
		}
		return w.body(s.Else)
	case *ir.Repeat:
		if err := w.preheader(s); err != nil {
			return err
		}
		for n := 0; ; n++ {
			if n >= maxLoopIters {
				return fmt.Errorf("cost: repeat at %s exceeds %d statically folded iterations", s.Pos, maxLoopIters)
			}
			if err := w.body(s.Body); err != nil {
				return err
			}
			until, err := w.needVal(s.Until, s.Pos, "repeat condition")
			if err != nil {
				return err
			}
			if until != 0 {
				return nil
			}
		}
	case *ir.While:
		if err := w.preheader(s); err != nil {
			return err
		}
		for n := 0; ; n++ {
			if n >= maxLoopIters {
				return fmt.Errorf("cost: while at %s exceeds %d statically folded iterations", s.Pos, maxLoopIters)
			}
			cond, err := w.needVal(s.Cond, s.Pos, "while condition")
			if err != nil {
				return err
			}
			if cond == 0 {
				return nil
			}
			if err := w.body(s.Body); err != nil {
				return err
			}
		}
	case *ir.For:
		if err := w.preheader(s); err != nil {
			return err
		}
		lo, err := w.needInt(s.Lo, s.Pos, "for bound")
		if err != nil {
			return err
		}
		hi, err := w.needInt(s.Hi, s.Pos, "for bound")
		if err != nil {
			return err
		}
		step := 1
		if s.Down {
			step = -1 // downto: iterate from lo down to hi
		}
		for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
			w.vals[s.Var.ID], w.unknown[s.Var.ID] = float64(v), false
			if err := w.body(s.Body); err != nil {
				return err
			}
		}
		return nil
	case *ir.Call:
		for i, a := range s.Args {
			w.assign(s.Proc.Params[i], a)
		}
		return w.body(s.Proc.Body)
	}
	return fmt.Errorf("cost: unexpected control stmt %T", s)
}

// preheader accounts the loop's hoisted transfers: each runs its full
// DR..SV sequence once, immediately before the loop is entered — on
// every encounter of the loop statement, like the runtime.
func (w *walker) preheader(loop ir.Stmt) error {
	for _, t := range w.plan.Preheader(loop) {
		for _, kind := range []comm.CallKind{comm.DR, comm.SR, comm.DN, comm.SV} {
			if err := w.call(comm.Call{Kind: kind, T: t}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *walker) needVal(e ir.Expr, pos zpl.Pos, what string) (float64, error) {
	v, ok := w.eval(e)
	if !ok {
		return 0, fmt.Errorf("cost: %s at %s depends on computed data: %w", what, pos, ErrNotStatic)
	}
	return v, nil
}

func (w *walker) needInt(e ir.Expr, pos zpl.Pos, what string) (int, error) {
	v, err := w.needVal(e, pos, what)
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("cost: %s at %s is not an integer: %g", what, pos, v)
	}
	return int(v), nil
}

func (w *walker) evalRegion(re ir.RegionExpr) (grid.Region, error) {
	if re.Sym != nil {
		return w.lay.Regions[re.Sym.ID], nil
	}
	spans := make([]grid.Span, re.RankN)
	for d := 0; d < re.RankN; d++ {
		lo, err := w.needInt(re.Bounds[d][0], zpl.Pos{}, "region bound")
		if err != nil {
			return grid.Region{}, err
		}
		hi, err := w.needInt(re.Bounds[d][1], zpl.Pos{}, "region bound")
		if err != nil {
			return grid.Region{}, err
		}
		spans[d] = grid.Span{Lo: lo, Hi: hi}
	}
	return grid.NewRegion(re.RankN, spans...), nil
}
