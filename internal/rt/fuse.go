package rt

import (
	"fmt"

	"commopt/internal/comm"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/trace"
	"commopt/internal/vtime"
	"commopt/internal/zpl"
)

// This file implements cross-statement kernel fusion: maximal runs of
// adjacent whole-array assignments over the same region, with no IRONMAN
// call scheduled between them and no cross-row dependence hazard, execute
// as ONE row-major sweep instead of one full sweep per statement. Each
// row of the common local region evaluates every member statement's
// compiled row closure in program order before moving to the next row, so
// a chain like U1 := U1 + c*R1; ...; U5 := U5 + c*R5 touches each cache
// line of the operand fields once per run instead of once per statement.
//
// Correctness rests on three layers:
//
//  1. Static legality (fusionRuns): members are all AssignArray over
//     provably identical regions (comm.RegionsCompatible), no IRONMAN
//     call sits at an interior boundary, no member needs storeFull
//     staging, and every cross-member dependence is compatible with the
//     interleaved row order (see outerSign).
//  2. Runtime agreement (compileFused): every member must resolve the
//     exact same local region the unfused path would compute for it, and
//     every member must kernel-compile. Any mismatch falls back to
//     per-statement execution — the fused path never changes which engine
//     semantics a statement gets, only the loop order.
//  3. Virtual-time exactness (fusedExec): the host work runs first, then
//     each member is charged, traced and critpath-bracketed individually
//     in original program order with exactly assignArray's charge
//     expression. The jitter RNG is consumed in the same order and count,
//     so clocks, Breakdown, critpath tiling and cost.Predict equality are
//     bit-identical with fusion on or off (fusion_diff_test.go).
//
// The interleaving argument for legality: sequential execution runs
// member i's whole sweep before member j's (i < j); fused execution runs
// both row by row. For any two members, reordering is observable only
// through a read of the other's LHS. A read by j of L_i at outer-row
// offset o sees, at row r, rows up to r+o: fused execution has stored
// exactly the rows lexicographically below r (plus r itself, before j,
// within the row step), so the read matches sequential iff o <= 0 (RAW).
// Symmetrically, a read by i of L_j must not see rows j has already
// overwritten in the fused order, which holds iff o >= 0 (WAR). Offsets
// confined to the row (outer component zero) are unaffected by the
// interchange. Halo rows outside the local region are never written by
// either order. Rank-1 statements have no outer dimension, so any
// in-halo offset is row-confined and legal.

// fuseRun is one fusable run of adjacent array statements inside a basic
// block: statement indices [start, end) of the block's Stmts, length >= 2.
type fuseRun struct {
	idx        int // dense index across the program's runs (proc.fused), numbered as setup binds the blocks
	start, end int
	stmts      []*ir.AssignArray // Stmts[start:end], re-typed
	inner      int               // shared row dimension (rank-1)

	// benefit is the run's CSE pre-pass result (cse.go): the structural
	// keys of subtrees that repeat across members with inputs unchanged.
	// Computed once when the run is built — it depends only on the
	// statements — and read concurrently by every processor's compile.
	benefit map[string]bool
}

// outerSign classifies a use offset's cross-row component relative to the
// fused row-major sweep: -1 when the offset points at rows the sweep has
// already stored, +1 at rows it has not reached yet, 0 when the read
// stays within the current row. Outer dimensions compare lexicographically
// in iteration order (dimension 0 outermost) — exactly the order forRows
// retires rows in — so on a rectangular region the sign is independent of
// the row position.
func outerSign(off grid.Offset, inner int) int {
	for d := 0; d < inner; d++ {
		if off[d] < 0 {
			return -1
		}
		if off[d] > 0 {
			return 1
		}
	}
	return 0
}

// fusionRuns finds every maximal fusable run in one planned block. When
// note is non-nil it receives, for each array statement that failed to
// extend the run its predecessor was building, the reason why (the
// -explain and lint surfaces render these; the runtime passes nil).
func fusionRuns(bp *comm.BlockPlan, note func(pos int, why string)) []*fuseRun {
	reject := func(pos int, why string) {
		if note != nil {
			note(pos, why)
		}
	}
	var runs []*fuseRun
	var cur []*ir.AssignArray
	start := 0
	flush := func() {
		if len(cur) >= 2 {
			runs = append(runs, &fuseRun{
				start: start, end: start + len(cur), stmts: cur,
				inner:   cur[0].Region.Rank() - 1,
				benefit: cseBenefits(cur),
			})
		}
		cur = nil
	}
	for pos, s := range bp.Stmts {
		a, ok := s.(*ir.AssignArray)
		if !ok {
			flush()
			continue
		}
		inner := a.Region.Rank() - 1
		if storeModeFor(a, inner) == storeFull {
			// Whole-result staging: the statement reads its own LHS across
			// rows, so even alone it cannot stream row by row alongside
			// neighbors.
			flush()
			reject(pos, fmt.Sprintf("%s reads its own result across rows (needs full staging)", a.LHS.Name))
			continue
		}
		if len(cur) > 0 {
			if why := joinBlocker(cur, a, bp.Calls[pos]); why != "" {
				flush()
				reject(pos, why)
			}
		}
		if cur == nil {
			start = pos
		}
		cur = append(cur, a)
	}
	flush()
	return runs
}

// joinBlocker reports why statement a cannot extend the run cur, or ""
// when it can. calls is the IRONMAN call list at the boundary between the
// run's last member and a.
func joinBlocker(cur []*ir.AssignArray, a *ir.AssignArray, calls []comm.Call) string {
	if len(calls) > 0 {
		return "communication is scheduled at this statement boundary"
	}
	if !comm.RegionsCompatible(cur[0].Region, a.Region) {
		return "statement region differs from the run's"
	}
	inner := a.Region.Rank() - 1
	// RAW: a reads an earlier member's result. The fused sweep has written
	// rows up to the current one, so reads of later rows (outer > 0) would
	// see stale values.
	for _, u := range a.Uses {
		for _, m := range cur {
			if u.Array == m.LHS && outerSign(u.Off, inner) > 0 {
				return fmt.Sprintf("reads %s at rows the fused sweep has not yet written", u)
			}
		}
	}
	// WAR: an earlier member reads what a writes. In the fused sweep a has
	// already overwritten earlier rows (outer < 0) by the time the earlier
	// member's row executes.
	for _, m := range cur {
		for _, u := range m.Uses {
			if u.Array == a.LHS && outerSign(u.Off, inner) < 0 {
				return fmt.Sprintf("%s reads %s at rows the fused sweep would already have overwritten", m.LHS.Name, u)
			}
		}
	}
	return ""
}

// FusionDecision reports the static fusion outcome of one array statement
// (ExplainFusion; zplc -explain renders these).
type FusionDecision struct {
	Pos zpl.Pos
	LHS string // assigned array's name
	Run int    // 1-based id of the fused run the statement joined; 0 when unfused
	Why string // rejection reason when unfused
}

// ExplainFusion runs the static cross-statement fusion analysis on every
// block of a plan — the same analysis rt.Run performs at setup — and
// reports, per array statement in plan order, whether it would execute
// fused and why not otherwise.
func ExplainFusion(plan *comm.Plan) []FusionDecision {
	var out []FusionDecision
	runID := 0
	for _, bp := range plan.Blocks {
		notes := map[int]string{}
		runs := fusionRuns(bp, func(pos int, why string) { notes[pos] = why })
		inRun := map[int]int{}
		for _, fr := range runs {
			runID++
			for pos := fr.start; pos < fr.end; pos++ {
				inRun[pos] = runID
			}
		}
		for pos, s := range bp.Stmts {
			a, ok := s.(*ir.AssignArray)
			if !ok {
				continue
			}
			d := FusionDecision{Pos: a.Pos, LHS: a.LHS.Name, Run: inRun[pos]}
			if d.Run == 0 {
				if why, ok := notes[pos]; ok {
					d.Why = why
				} else {
					d.Why = "no adjacent fusable array statement"
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// fusedKernel is the compiled execution of one fusable run over one
// resolved region on the processors of one shape class: every member's row
// closure, executed member-by-member inside a single row-major sweep. A nil
// fusedKernel (memoized) means the run falls back to per-statement
// execution for that region.
type fusedKernel struct {
	local   grid.Region // relative to the block origin
	size    int         // local.Size(); 0 for an empty local region
	inner   int
	L       int
	slots   int       // run-wide scratch rows (shared compile, incl. memo rows)
	members []*kernel // same order as the run's statements; nil when size == 0

	// Incremental store bases (see run): because every member walks the
	// same rows in lockstep, each member's flat store index advances by a
	// fixed stride per row instead of being recomputed from (i,j,k). The
	// unfused path cannot do this — it has one kernel per sweep. dj/di are
	// the per-member advances along the middle and outer loop; the cursors
	// themselves are the executing processor's (kctx.bases).
	dj []int
	di []int
}

// noSweep is every run's fused kernel where the processor has no part of
// the region: the members charge their statement overhead and do no work.
var noSweep fusedKernel

// fusedFor returns the run's fused kernel at its currently resolved
// region, compiling on the class's first use. nil means "execute the
// members individually".
func (p *proc) fusedFor(fr *fuseRun) *fusedKernel {
	// All members share provably compatible regions and no scalar can
	// change between them (runs contain only array assignments), so the
	// first member's region serves the whole run.
	cl := p.cls
	return resolve(p, &p.fused[fr.idx], &p.w.fusedCC[fr.idx], &cl.frame, cl.id, fr.stmts[0].Region, cacheFused, func(base grid.Region) *fusedKernel {
		return compileFused(cl, fr, base)
	})
}

// compileFused builds the fused kernel for one run over a block's part base
// of one resolved region, or returns nil when the members must execute
// individually: their computed local regions disagree (differing
// allocation clips), or any member fails kernel compilation.
//
// All members compile through ONE kcompiler with the CSE memo armed
// (cse.go): scratch slots are allocated out of a single run-wide space,
// and a subtree repeated across members reuses the first member's row
// instead of re-evaluating. The members' own statement sites are untouched
// — fused members are compiled fresh so their closures can share the
// run-wide memo rows.
func compileFused(cl *shapeClass, fr *fuseRun, base grid.Region) *fusedKernel {
	local := cl.owned(fr.stmts[0].LHS.ID, base)
	for _, s := range fr.stmts[1:] {
		if cl.owned(s.LHS.ID, base) != local {
			return nil
		}
	}
	fk := &fusedKernel{local: local, inner: fr.inner}
	if local.Empty() {
		return fk // members all charge StmtOverhead only; no host work
	}
	fk.size = local.Size()
	fk.L = local.Spans[fr.inner].Len()
	fk.members = make([]*kernel, 0, len(fr.stmts))
	kc := newKcompiler(cl, local)
	if len(fr.benefit) > 0 {
		kc.memo, kc.benefit = map[string]*memoEntry{}, fr.benefit
	}
	for _, s := range fr.stmts {
		if kc.memo == nil {
			// No subtree repeats across the run, so no scratch row outlives
			// a member: the members reuse one max-sized scratch space in turn.
			kc.slots = 0
		}
		k := kc.assign(s)
		if k == nil {
			return nil
		}
		// The member just became this array's writer: memoized subtrees
		// that read it are stale for every later member.
		kc.killMemo(s.LHS.ID)
		fk.slots = max(fk.slots, kc.slots)
		fk.members = append(fk.members, k)
	}
	return fk.withBases()
}

// withBases precomputes run's incremental store bookkeeping: each
// member's flat store index advances by dj after every middle-loop row
// and by di after every outer-loop block, so the sweep never recomputes
// IndexOf past the first row. rows1 mirrors the middle loop's trip count
// in run (one when rows advance along dimension 0 or the region is a
// single row).
func (fk *fusedKernel) withBases() *fusedKernel {
	rows1 := 1
	if fk.inner == 2 {
		rows1 = fk.local.Spans[1].Len()
	}
	n := len(fk.members)
	fk.dj = make([]int, n)
	fk.di = make([]int, n)
	for mi, k := range fk.members {
		fk.dj[mi] = k.lhs.s1
		fk.di[mi] = k.lhs.s0 - rows1*k.lhs.s1
	}
	return fk
}

// run executes the fused sweep: one pass over the rows of the common
// local region, each row evaluating and storing every member in program
// order. The member kernels are the very same compiled closures the
// unfused path runs — only the loop order is interchanged — and the
// per-row store code below replicates kernel.run's storeDirect/storeRow
// arms exactly, so results are bit-identical. storeFull members are
// excluded statically (fusionRuns).
//
// The loop nest spells out forRows's row order so the member store
// bases can advance incrementally (withBases): the unfused path pays
// one IndexOf per row, the fused path pays one integer add per member
// per row. Members must run in program order within a row — later
// members legitimately read rows earlier members just stored.
func (fk *fusedKernel) run(p *proc) {
	c := &p.kctx
	m := p.arena.mark()
	c.scratch = p.arena.alloc(fk.slots * fk.L)
	stage := p.arena.alloc(fk.L)
	members := fk.members
	s := fk.local.Spans
	lo0, hi0, lo1, hi1 := s[0].Lo, s[0].Hi, s[1].Lo, s[1].Hi
	switch fk.inner {
	case 0:
		hi0, hi1 = lo0, lo1 // the whole local region is one row
	case 1:
		hi1 = lo1 // rows advance along dimension 0 only
	}
	dj, di := fk.dj, fk.di
	bases := c.bases[:0]
	for _, k := range members {
		bases = append(bases, k.lhs.at(lo0, lo1, s[2].Lo))
	}
	c.bases = bases
	c.k = s[2].Lo
	for i := lo0; i <= hi0; i++ {
		c.i = i
		for j := lo1; j <= hi1; j++ {
			c.j = j
			c.memo = 0 // invalidate every memoized row (cse.go)
			for mi, k := range members {
				b := bases[mi]
				bases[mi] = b + dj[mi]
				ldata := c.data[k.lhs.id]
				if k.mode == storeDirect {
					dst := ldata[b : b+k.L]
					if out := k.row(c, dst); &out[0] != &dst[0] {
						copy(dst, out)
					}
					continue
				}
				// storeRow: the member reads its own LHS within the row.
				out := k.row(c, stage)
				copy(ldata[b:b+k.L], out)
			}
		}
		for mi := range bases {
			bases[mi] += di[mi]
		}
	}
	p.arena.release(m)
}

// fusedExec executes one fused run in place of its member statements: the
// host work of every member runs as one sweep, then each member statement
// is charged, bracketed and recorded in original program order. Virtual
// time is identical to the unfused path — the sweep advances no clocks,
// and each member's charge below is exactly assignArray's expression over
// the same size, consumed from the jitter stream in the same order.
func (p *proc) fusedExec(fr *fuseRun, fk *fusedKernel) {
	if p.inflightN > 0 {
		for _, s := range fr.stmts {
			if p.inflight[s.LHS.ID] > 0 {
				p.joinArray(s.LHS.ID)
			}
		}
	}
	if fk.size > 0 {
		fk.run(p)
	}
	w := p.w
	for _, s := range fr.stmts {
		d := w.mach.StmtOverhead + p.jittered(vtime.Duration(int64(fk.size)*int64(s.Flops))*w.mach.OpTime)
		if p.tr == nil && p.met == nil && p.cpl == nil {
			p.charge(d)
			continue
		}
		var prevLabel, prevSite string
		if p.cpl != nil {
			prevLabel, prevSite = p.cpl.Context(p.stmtLabel(s), "")
		}
		start := p.clock
		p.engine = trace.EngineFused
		p.charge(d)
		if p.cpl != nil {
			p.cpl.Context(prevLabel, prevSite)
		}
		if p.met != nil {
			p.met.stmtDur.Observe(int64(d))
			p.met.stmtsByEn[p.engine]++
		}
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindStmt, Start: start, Dur: d, Name: p.stmtLabel(s), A0: p.engine})
		}
	}
}
