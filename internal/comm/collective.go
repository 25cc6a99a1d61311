package comm

import (
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// Collective is a first-class global reduction operation of a plan: one
// `op<<` reduce site in the program, surfaced so the runtime, the cost
// predictor and the protocol checker all attribute its messages to the
// same source position the way point-to-point transfers are attributed
// to their Sites. Which hop pattern executes it (star, binomial tree,
// butterfly, two-level) is chosen per machine binding at run/predict
// time — the plan records the operation, not the algorithm.
type Collective struct {
	ID   int
	Op   ir.ReduceOp
	Pos  zpl.Pos // enclosing scalar assignment's source position
	Node *ir.Reduce
}

// CollectiveFor returns the plan's collective op for a reduce node, or
// nil if the node is not part of the planned program.
func (p *Plan) CollectiveFor(n *ir.Reduce) *Collective {
	return p.collByNode[n]
}

// collectCollectives walks every procedure body in declaration order and
// registers each reduction site. The walk order is deterministic (source
// order within each body), so collective IDs — and everything keyed on
// them, like profile rows — are stable across builds.
func (p *Plan) collectCollectives() {
	p.collByNode = map[*ir.Reduce]*Collective{}
	var walkStmts func(stmts []ir.Stmt)
	walkStmts = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ir.AssignScalar:
				ir.EachReduce(s.RHS, func(e *ir.Reduce) {
					if p.collByNode[e] == nil {
						c := &Collective{ID: len(p.Collectives), Op: e.Op, Pos: s.Pos, Node: e}
						p.Collectives = append(p.Collectives, c)
						p.collByNode[e] = c
					}
				})
			case *ir.If:
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *ir.Repeat:
				walkStmts(s.Body)
			case *ir.While:
				walkStmts(s.Body)
			case *ir.For:
				walkStmts(s.Body)
			}
		}
	}
	// Main is an element of Procs, so this walk covers it exactly once.
	for _, proc := range p.Program.Procs {
		walkStmts(proc.Body)
	}
}
