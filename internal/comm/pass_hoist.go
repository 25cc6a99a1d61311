package comm

import (
	"commopt/internal/ir"
)

// hoistPass is loop-invariant communication hoisting: the paper's
// Section 4 direction of applying optimizations "across basic block
// boundaries". A transfer inside a loop body whose carried arrays are
// never written anywhere in the loop, and whose region is static,
// delivers identical data every iteration — so it executes once,
// immediately before the loop, instead of once per iteration.
//
// Unlike the block passes it transforms the whole plan, after every
// block is built, because it needs the loop structure around blocks; the
// pipeline runs it as its final, program-level stage.
//
// The rule is conservative (no data-flow lattice, just whole-loop kill
// sets) and interacts with combining: an invariant transfer may not merge
// with a loop-variant one, or the merge would pin it inside the loop. For
// short inner loops that lost combining can cost more than hoisting saves
// — SIMPLE's two-trip conduction loop is the living example (see
// hoist_ext_test.go and examples/varcoef) — so the extension is off by
// default, exactly the
// kind of machine/application tailoring the paper's Section 4 proposes
// studying.
type hoistPass struct{}

// RunProgram hoists every invariant transfer of the plan and returns how
// many moved to loop preheaders.
func (hoistPass) RunProgram(p *Plan) int {
	for _, proc := range p.Program.Procs {
		p.hoistInvariant(proc.Body)
	}
	return p.HoistedCount()
}

// hoistInvariant scans a structured body and, for each loop, marks the
// hoistable transfers of the loop body's directly nested blocks and
// registers them as the loop's preheader transfers.
func (p *Plan) hoistInvariant(body []ir.Stmt) {
	for _, seg := range SplitSegments(body) {
		if seg.Block != nil {
			continue
		}
		switch s := seg.Control.(type) {
		case *ir.If:
			p.hoistInvariant(s.Then)
			p.hoistInvariant(s.Else)
		case *ir.Repeat:
			p.hoistLoop(s, s.Body)
		case *ir.While:
			p.hoistLoop(s, s.Body)
		case *ir.For:
			p.hoistLoop(s, s.Body)
		}
	}
}

func (p *Plan) hoistLoop(loop ir.Stmt, body []ir.Stmt) {
	// Recurse first: transfers may hoist out of inner loops to their own
	// preheaders (one level at a time).
	p.hoistInvariant(body)

	killed := map[*ir.ArraySym]bool{}
	collectDefs(body, killed)

	for _, seg := range SplitSegments(body) {
		if seg.Block == nil {
			continue
		}
		bp := p.blockByFirst[seg.Block[0]]
		if bp == nil {
			continue
		}
		// Hoisted transfers stay listed on the block: they still cover its
		// uses and count once statically; only their calls move out.
		for _, t := range bp.Transfers {
			if p.transferInvariant(t, killed) {
				t.Hoisted = true
				p.preheader[loop] = append(p.preheader[loop], t)
				removeCalls(bp, t)
			}
		}
	}
}

func (p *Plan) transferInvariant(t *Transfer, killed map[*ir.ArraySym]bool) bool {
	if t.Region.Sym == nil {
		return false // loop-variant bounds (e.g. wavefront rows)
	}
	for _, a := range t.Items {
		if killed[a] {
			return false
		}
	}
	return true
}

// collectDefs adds every array assigned anywhere in body to killed.
func collectDefs(body []ir.Stmt, killed map[*ir.ArraySym]bool) {
	for _, s := range body {
		switch s := s.(type) {
		case *ir.AssignArray:
			killed[s.LHS] = true
		case *ir.If:
			collectDefs(s.Then, killed)
			collectDefs(s.Else, killed)
		case *ir.Repeat:
			collectDefs(s.Body, killed)
		case *ir.While:
			collectDefs(s.Body, killed)
		case *ir.For:
			collectDefs(s.Body, killed)
		case *ir.Call:
			collectDefs(s.Proc.Body, killed)
		}
	}
}

// removeCalls drops a hoisted transfer's IRONMAN calls from the block
// schedule (the preheader performs them).
func removeCalls(bp *BlockPlan, t *Transfer) {
	for pos, calls := range bp.Calls {
		out := calls[:0]
		for _, c := range calls {
			if c.T != t {
				out = append(out, c)
			}
		}
		bp.Calls[pos] = out
	}
}

// Preheader returns the transfers hoisted to just before the given loop
// statement (nil for most loops).
func (p *Plan) Preheader(loop ir.Stmt) []*Transfer { return p.preheader[loop] }

// HoistedCount returns how many transfers were hoisted program-wide.
func (p *Plan) HoistedCount() int {
	n := 0
	for _, ts := range p.preheader {
		n += len(ts)
	}
	return n
}
