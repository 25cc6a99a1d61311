package ir

// Inline returns a copy of the program in which every procedure call is
// replaced by parameter assignments followed by the callee's body. This
// is the paper's Section 4 extension: Cooper et al. found inlining
// "almost always detrimental" for scientific codes, but "the presence of
// communication was not considered" — inlining removes the basic-block
// boundary a call imposes, exposing redundancy removal, combination and
// pipelining opportunities that span the former call site.
//
// The subset forbids recursion, so expansion terminates; statements are
// cloned so that two inlinings of the same procedure occupy distinct
// basic blocks. Symbols (including parameters and locals) keep their
// single static storage slots, which is exactly how the non-inlined code
// binds them, so behavior is unchanged.
func Inline(p *Program) *Program {
	out := *p
	// Every surviving array statement is a clone; renumber them densely so
	// two inlinings of one statement are distinct dispatch sites.
	out.NumArrayStmts = 0
	main := &Proc{Name: p.Main.Name}
	main.Body = out.inlineBody(p.Main.Body)
	out.Procs = []*Proc{main}
	out.Main = main
	return &out
}

func (p *Program) inlineBody(body []Stmt) []Stmt {
	var out []Stmt
	for _, s := range body {
		switch s := s.(type) {
		case *Call:
			for i, arg := range s.Args {
				out = append(out, &AssignScalar{Pos: s.Pos, LHS: s.Proc.Params[i], RHS: arg})
			}
			out = append(out, p.inlineBody(s.Proc.Body)...)
		default:
			out = append(out, p.cloneStmt(s))
		}
	}
	return out
}

// cloneStmt copies a statement node (and, recursively, nested bodies) so
// inlined copies are distinct; expressions and symbols are shared, since
// neither the planner nor the runtime mutates them. (Reduce nodes are
// expressions, so clones share a Reduce's ID: the statement region it is
// cached under is the same in every clone. Clones share their literal
// region's Slot for the same reason.)
func (p *Program) cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *AssignArray:
		c := *s
		c.ID = p.NumArrayStmts
		p.NumArrayStmts++
		return &c
	case *AssignScalar:
		c := *s
		return &c
	case *If:
		c := *s
		c.Then = p.inlineBody(s.Then)
		c.Else = p.inlineBody(s.Else)
		return &c
	case *Repeat:
		c := *s
		c.Body = p.inlineBody(s.Body)
		return &c
	case *While:
		c := *s
		c.Body = p.inlineBody(s.Body)
		return &c
	case *For:
		c := *s
		c.Body = p.inlineBody(s.Body)
		return &c
	case *Write:
		c := *s
		return &c
	case *Call:
		panic("ir: cloneStmt reached a call")
	}
	panic("ir: unknown statement in cloneStmt")
}
