package comm

import (
	"fmt"
	"slices"

	"commopt/internal/diag"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// CheckPlan is the optimizer's one plan checker. From the IR alone it
// re-derives the communication every block requires — its own
// reaching-definitions scan (factsOf), element-set test (sameElementSet)
// and whole-loop def collector, never the BlockAnalysis the passes
// consume — and checks that the plan, whatever pipeline produced it,
// still satisfies all of it and schedules it as well-formed IRONMAN
// calls. Each rule has a stable ID, so corruptions are distinguishable:
//
//	plan-call-set         a transfer's calls are missing, duplicated, placed
//	                      off their recorded boundary, or (hoisted) still in
//	                      the block or not in exactly one preheader
//	plan-call-order       DR <= SR <= DN, SR <= SV fails on the recorded
//	                      positions, or DR < SR < DN, SR < SV in the SPMD
//	                      call sequence every processor executes
//	plan-inflight-clobber a carried array is written between SR and SV
//	plan-hoisted-variant  a hoisted transfer's data varies in the loop
//	plan-missing-transfer a required use has no transfer at all
//	plan-stale-transfer   a required use has only stale or late transfers
//	plan-overwide-merge   a transfer carries data no use requires
//	plan-bound-write      a literal region bound reads a scalar the block
//	                      assigned before it
//
// The coverage rules run in both directions: rr may only have dropped
// transfers another live transfer still covers (plan-missing/stale), cc
// merges must carry exactly the union of their sources' element sets
// (plan-overwide-merge on more, the coverage rules on less), and pl motion
// must cross no conflicting def or use (plan-inflight-clobber /
// plan-stale-transfer). The call rules need no machine binding: every
// processor executes the same sequence, so SR before its own DR, the only
// shape of a rendezvous wait cycle, is already plan-call-order.
//
// Findings carry source positions via ir.PosOf; an empty result means the
// plan is provably equivalent to the unoptimized communication. In debug
// mode (Pipeline.Debug) the same block check runs after every pass on the
// intermediate transfer list, without the call rules (no calls exist yet).
func CheckPlan(p *Plan) []diag.Finding {
	c := &checker{calls: true}
	if p.Program != nil { // bare block plans (tests) have no loop structure
		c.hoistedIn = map[*Transfer]int{}
		for _, proc := range p.Program.Procs {
			c.loops(p, proc.Body)
		}
	}
	for i, bp := range p.Blocks {
		c.block(i, bp)
	}
	return c.findings
}

// checkBlock checks one block's intermediate transfer list between passes.
func checkBlock(stmts []ir.Stmt, transfers []*Transfer) []diag.Finding {
	c := &checker{}
	c.block(0, &BlockPlan{Stmts: stmts, Transfers: transfers})
	return c.findings
}

// Checker rule IDs.
const (
	RuleCallSet        = "plan-call-set"
	RuleCallOrder      = "plan-call-order"
	RuleInflight       = "plan-inflight-clobber"
	RuleHoistedVariant = "plan-hoisted-variant"
	RuleMissing        = "plan-missing-transfer"
	RuleStale          = "plan-stale-transfer"
	RuleOverwide       = "plan-overwide-merge"
	RuleBoundWrite     = "plan-bound-write"
)

// Rules lists every checker rule with a one-line doc, for zplvet -rules.
func Rules() [][2]string {
	return [][2]string{
		{RuleCallSet, "transfer's IRONMAN calls missing, duplicated or misplaced"},
		{RuleCallOrder, "calls violate DR <= SR <= DN, SR <= SV (recorded or in sequence)"},
		{RuleInflight, "carried array written between send-ready and source-volatile"},
		{RuleHoistedVariant, "hoisted transfer's data varies across loop iterations"},
		{RuleMissing, "required use has no transfer at all"},
		{RuleStale, "required use has only stale or late transfers"},
		{RuleOverwide, "transfer carries data no use requires (over-wide merge)"},
		{RuleBoundWrite, "literal region bound reads a scalar assigned earlier in the block"},
	}
}

type checker struct {
	findings []diag.Finding
	calls    bool // check the blocks' IRONMAN calls
	// hoistedIn counts the loop preheaders listing each transfer; nil when
	// the plan has no program to walk.
	hoistedIn map[*Transfer]int
}

func (c *checker) report(rule string, pos zpl.Pos, format string, args ...any) {
	c.findings = append(c.findings, diag.Finding{
		Rule: rule, Severity: diag.Error, Pos: pos,
		Msg: fmt.Sprintf(format, args...),
	})
}

// block checks one block plan against independently derived facts.
func (c *checker) block(idx int, bp *BlockPlan) {
	facts := factsOf(bp.Stmts)
	end := len(bp.Stmts)
	var seq []seqCall
	if c.calls {
		seq = c.flatten(idx, bp)
	}

	for _, t := range bp.Transfers {
		pos := stmtPos(bp.Stmts, t.UseIdx)
		if t.Hoisted {
			if c.calls {
				c.hoistedCalls(idx, t, seq, pos)
			}
			// Block-local slice of the invariance guarantee; the loop-wide
			// part runs in loops.
			for _, a := range t.Items {
				if d := facts.defIn(a, 0, end); d >= 0 {
					c.report(RuleHoistedVariant, pos,
						"block %d: %v hoisted but %s is written at stmt %d", idx, t, a.Name, d)
				}
			}
		} else if c.callsInOrder(idx, t, seq, end, pos) {
			for _, a := range t.Items {
				if d := facts.defIn(a, t.SRPos, min(t.SVPos, end)); d >= 0 {
					c.report(RuleInflight, pos,
						"block %d: %v carries %s, written at stmt %d while in flight (SR=%d SV=%d)",
						idx, t, a.Name, d, t.SRPos, t.SVPos)
				}
			}
		}

		// The reverse direction: everything the transfer carries must be
		// demanded by some use it actually covers, or a merge grew wider
		// than the union of its sources.
		for _, a := range t.Items {
			if !facts.justified(t, a) {
				c.report(RuleOverwide, pos,
					"block %d: %v carries %s@%v which no use requires", idx, t, a.Name, t.Offset)
			}
		}
	}

	// The forward direction: every required use is covered.
	for _, r := range facts.reqs {
		pos := stmtPos(bp.Stmts, r.idx)
		matched, fresh := facts.coverage(bp.Transfers, r)
		switch {
		case fresh:
		case matched:
			c.report(RuleStale, pos,
				"block %d stmt %d: use %v matched only stale or late transfers", idx, r.idx, r.use)
		default:
			c.report(RuleMissing, pos,
				"block %d stmt %d: use %v has no covering transfer", idx, r.idx, r.use)
		}
	}

	c.boundWrites(idx, bp.Stmts)
}

// seqCall is one element of a block's flattened SPMD call sequence.
type seqCall struct {
	Call
	pos int // statement boundary the call is placed at
}

// flatten returns the block's calls in execution order, reporting calls of
// transfers the block does not declare.
func (c *checker) flatten(idx int, bp *BlockPlan) []seqCall {
	var seq []seqCall
	for pos, calls := range bp.Calls {
		for _, call := range calls {
			seq = append(seq, seqCall{call, pos})
			if !slices.Contains(bp.Transfers, call.T) {
				c.report(RuleCallSet, stmtPos(bp.Stmts, call.T.UseIdx),
					"block %d: %s call for transfer %v the block does not declare", idx, call.Kind, call.T)
			}
		}
	}
	return seq
}

// callIndex returns the index of each kind's call of t in the sequence:
// -1 missing, -2 duplicated.
func callIndex(seq []seqCall, t *Transfer) [4]int {
	at := [4]int{-1, -1, -1, -1}
	for n, sc := range seq {
		if sc.T != t {
			continue
		}
		if at[sc.Kind] != -1 {
			at[sc.Kind] = -2
		} else {
			at[sc.Kind] = n
		}
	}
	return at
}

// hoistedCalls checks that a hoisted transfer's calls left the block for
// exactly one loop preheader.
func (c *checker) hoistedCalls(idx int, t *Transfer, seq []seqCall, pos zpl.Pos) {
	for kind, n := range callIndex(seq, t) {
		if n != -1 {
			c.report(RuleCallSet, pos,
				"block %d: hoisted transfer %v still has a %s call in the block", idx, t, CallKind(kind))
		}
	}
	if n := c.hoistedIn[t]; c.hoistedIn != nil && n != 1 {
		c.report(RuleCallSet, pos, "hoisted transfer %v appears in %d loop preheaders", t, n)
	}
}

// callsInOrder checks a live transfer's calls: with c.calls, one call of
// each kind at its recorded boundary (plan-call-set), and DR < SR < DN,
// SR < SV in the sequence; always, the same order among the recorded
// positions (plan-call-order). It reports whether the recorded positions
// are in order, which the in-flight rule reads.
func (c *checker) callsInOrder(idx int, t *Transfer, seq []seqCall, end int, pos zpl.Pos) bool {
	recorded := 0 <= t.DRPos && t.DRPos <= t.SRPos && t.SRPos <= t.DNPos && t.DNPos <= end &&
		t.SRPos <= t.SVPos && t.SVPos <= end
	var at [4]int
	inSeq := true
	if c.calls {
		at = callIndex(seq, t)
		for kind := DR; kind <= SV; kind++ {
			switch n := at[kind]; {
			case n == -1:
				c.report(RuleCallSet, pos, "block %d: transfer %v has no %s call", idx, t, kind)
			case n == -2:
				c.report(RuleCallSet, pos, "block %d: transfer %v has duplicate %s calls", idx, t, kind)
			case seq[n].pos != t.CallPos(kind):
				c.report(RuleCallSet, pos, "block %d: transfer %v's %s call placed at position %d, recorded %d",
					idx, t, kind, seq[n].pos, t.CallPos(kind))
			}
		}
		// With a call missing or duplicated the sequence has no order to check.
		inSeq = min(at[DR], at[SR], at[DN], at[SV]) < 0 ||
			at[DR] < at[SR] && at[SR] < at[DN] && at[SR] < at[SV]
	}
	if !recorded || !inSeq {
		c.report(RuleCallOrder, pos,
			"block %d: %v calls out of order (recorded DR=%d SR=%d DN=%d SV=%d of %d stmts; sequence DR@%d SR@%d DN@%d SV@%d)",
			idx, t, t.DRPos, t.SRPos, t.DNPos, t.SVPos, end, at[DR], at[SR], at[DN], at[SV])
	}
	return recorded
}

// boundWrites reports each statement whose literal region bound reads a
// scalar an earlier statement of the block assigns. The runtime evaluates
// a literal region once, at block entry, so the statement would run over
// the bound's old value (SplitSegments ends a block after such a write).
func (c *checker) boundWrites(idx int, stmts []ir.Stmt) {
	written := map[*ir.ScalarSym]int{}
	for i, s := range stmts {
		if re := ir.RegionOf(s); re.Sym == nil {
			var hit *ir.ScalarSym
			for d := 0; d < re.RankN; d++ {
				for _, e := range re.Bounds[d] {
					ir.EachScalarRef(e, func(sym *ir.ScalarSym) {
						if _, ok := written[sym]; ok && hit == nil {
							hit = sym
						}
					})
				}
			}
			if hit != nil {
				c.report(RuleBoundWrite, ir.PosOf(s),
					"block %d stmt %d: region bound reads %s, assigned at stmt %d of the same block; the bound is evaluated at block entry",
					idx, i, hit.Name, written[hit])
			}
		}
		if a, ok := s.(*ir.AssignScalar); ok {
			if _, ok := written[a.LHS]; !ok {
				written[a.LHS] = i
			}
		}
	}
}

// loops walks every loop of a body once: it counts each preheader
// transfer for the one-preheader rule and re-checks it against the whole
// loop body with the checker's own def scan — hoisting is only sound when
// the carried data is identical on every iteration, i.e. static region and
// no definition anywhere in the loop.
func (c *checker) loops(p *Plan, body []ir.Stmt) {
	for _, s := range body {
		var loopBody []ir.Stmt
		switch s := s.(type) {
		case *ir.If:
			c.loops(p, s.Then)
			c.loops(p, s.Else)
			continue
		case *ir.Repeat:
			loopBody = s.Body
		case *ir.While:
			loopBody = s.Body
		case *ir.For:
			loopBody = s.Body
		default:
			continue
		}
		c.loops(p, loopBody)
		ts := p.preheader[s]
		if len(ts) == 0 {
			continue
		}
		defs := map[*ir.ArraySym]bool{}
		loopDefs(loopBody, defs)
		pos := ir.PosOf(s)
		for _, t := range ts {
			c.hoistedIn[t]++
			if !t.Hoisted {
				c.report(RuleCallSet, pos, "loop at %v: %v scheduled in the preheader but not marked hoisted", pos, t)
			}
			if t.Region.Sym == nil {
				c.report(RuleHoistedVariant, pos, "loop at %v: %v hoisted with non-static region", pos, t)
			}
			for _, a := range t.Items {
				if defs[a] {
					c.report(RuleHoistedVariant, pos,
						"loop at %v: %v hoisted but %s is written in the loop body", pos, t, a.Name)
				}
			}
		}
	}
}

func stmtPos(stmts []ir.Stmt, idx int) zpl.Pos {
	if idx < 0 || idx >= len(stmts) {
		return zpl.Pos{}
	}
	return ir.PosOf(stmts[idx])
}

// The rest of this file is the checker's independent dataflow substrate.
// It deliberately re-derives reaching definitions and communication
// requirements from the IR statements alone — it must not touch
// BlockAnalysis (analysis.go), which is the substrate the optimizer
// passes consume. A bug in the shared analysis therefore cannot hide a
// matching bug in the plan: the checker would disagree with it.

// requirement is one communicating use the plan must satisfy: a (field,
// direction) pair read by the statement at idx under its region.
type requirement struct {
	use    ir.ArrayUse
	region ir.RegionExpr
	idx    int
}

// blockFacts holds the checker's own per-block dataflow: every array's
// definition sites in statement order, plus the block's communication
// requirements.
type blockFacts struct {
	defs map[*ir.ArraySym][]int
	reqs []requirement
}

// factsOf scans a block's statements once.
func factsOf(stmts []ir.Stmt) *blockFacts {
	f := &blockFacts{defs: map[*ir.ArraySym][]int{}}
	for i, s := range stmts {
		reg := ir.RegionOf(s)
		for _, u := range ir.UsesOf(s) {
			if u.NeedsComm() {
				f.reqs = append(f.reqs, requirement{use: u, region: reg, idx: i})
			}
		}
		if a := ir.DefOf(s); a != nil {
			f.defs[a] = append(f.defs[a], i)
		}
	}
	return f
}

// lastDefBefore returns the last statement index < idx defining a, or -1.
func (f *blockFacts) lastDefBefore(a *ir.ArraySym, idx int) int {
	last := -1
	for _, d := range f.defs[a] {
		if d >= idx {
			break
		}
		last = d
	}
	return last
}

// defIn returns the first statement index in [lo, hi) defining a, or -1.
func (f *blockFacts) defIn(a *ir.ArraySym, lo, hi int) int {
	for _, d := range f.defs[a] {
		if d >= hi {
			break
		}
		if d >= lo {
			return d
		}
	}
	return -1
}

// coverage reports whether any transfer matches the requirement's
// (field, direction, element set) at all, and whether a matching one is
// fresh and delivered at the use.
func (f *blockFacts) coverage(transfers []*Transfer, r requirement) (matched, fresh bool) {
	last := f.lastDefBefore(r.use.Array, r.idx)
	for _, t := range transfers {
		if t.Offset != r.use.Off || !t.Carries(r.use.Array) || !sameElementSet(t.Region, r.region) {
			continue
		}
		matched = true
		// Preheader data is current only while the array has no definition
		// before the use. Block data must be delivered by the use, and the
		// values captured at the send point must still be the values at the
		// use: no definition in between.
		if t.Hoisted && last == -1 || !t.Hoisted && t.DNPos <= r.idx && last < t.SRPos {
			return true, true
		}
	}
	return matched, false
}

// justified reports whether any requirement demands item a at the
// transfer's offset and element set. Timing is deliberately ignored here:
// whether the demanding use is actually satisfied is the coverage rules'
// job, so each corruption keeps its own distinguishing rule ID.
func (f *blockFacts) justified(t *Transfer, a *ir.ArraySym) bool {
	for _, r := range f.reqs {
		if r.use.Array == a && r.use.Off == t.Offset && sameElementSet(t.Region, r.region) {
			return true
		}
	}
	return false
}

// sameElementSet reports whether two statement regions denote the same
// index set: the same declared region, or literal regions sharing their
// bound expressions. It mirrors the definition the optimizer relies on
// but is computed here from the IR directly.
func sameElementSet(a, b ir.RegionExpr) bool {
	if a.Sym != nil || b.Sym != nil {
		return a.Sym == b.Sym
	}
	if a.RankN != b.RankN {
		return false
	}
	for d := 0; d < a.RankN; d++ {
		if a.Bounds[d][0] != b.Bounds[d][0] || a.Bounds[d][1] != b.Bounds[d][1] {
			return false
		}
	}
	return true
}

// loopDefs adds every array assigned anywhere in body (including called
// procedures) to defs — the checker's own whole-loop kill scan.
func loopDefs(body []ir.Stmt, defs map[*ir.ArraySym]bool) {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.AssignArray:
			defs[s.LHS] = true
		case *ir.If:
			loopDefs(s.Then, defs)
			loopDefs(s.Else, defs)
		case *ir.Repeat:
			loopDefs(s.Body, defs)
		case *ir.While:
			loopDefs(s.Body, defs)
		case *ir.For:
			loopDefs(s.Body, defs)
		case *ir.Call:
			loopDefs(s.Proc.Body, defs)
		}
	}
}
