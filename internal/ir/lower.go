package ir

import (
	"fmt"
	"math"

	"commopt/internal/grid"
	"commopt/internal/zpl"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// Lower type-checks a parsed program and lowers it to IR. It resolves
// every symbol, checks scalar/array shape rules, evaluates direction
// vectors to static offsets, computes ghost widths, assigns storage IDs
// and verifies that procedures do not recurse.
func Lower(src *zpl.Program) (*Program, error) {
	lw := &lowerer{
		prog:     &Program{Name: src.Name},
		scalars:  map[string]*ScalarSym{},
		regions:  map[string]*RegionSym{},
		dirs:     map[string]*DirSym{},
		arrays:   map[string]*ArraySym{},
		procs:    map[string]*Proc{},
		srcProcs: map[string]*zpl.ProcDecl{},
		calls:    map[string]map[string]bool{},
	}
	if err := lw.run(src); err != nil {
		return nil, err
	}
	return lw.prog, nil
}

type shape int

const (
	scalarShape shape = iota
	arrayShape
)

type lowerer struct {
	prog     *Program
	scalars  map[string]*ScalarSym
	regions  map[string]*RegionSym
	dirs     map[string]*DirSym
	arrays   map[string]*ArraySym
	procs    map[string]*Proc
	srcProcs map[string]*zpl.ProcDecl
	calls    map[string]map[string]bool

	// Per-procedure state.
	curProc     string
	localScalar map[string]*ScalarSym
	regionStack []RegionExpr

	err error
}

func (lw *lowerer) fail(pos zpl.Pos, format string, args ...any) {
	if lw.err == nil {
		lw.err = zpl.Errorf(pos, format, args...)
	}
}

func (lw *lowerer) newScalar(name string, typ Type, kind ScalarKind, init Expr) *ScalarSym {
	s := &ScalarSym{Name: name, Type: typ, Kind: kind, ID: len(lw.prog.Scalars), Init: init}
	lw.prog.Scalars = append(lw.prog.Scalars, s)
	return s
}

func (lw *lowerer) run(src *zpl.Program) error {
	for _, d := range src.Decls {
		lw.decl(d)
		if lw.err != nil {
			return lw.err
		}
	}
	// Create procedure shells first so calls may be forward.
	for _, p := range src.Procs {
		if _, dup := lw.procs[p.Name]; dup {
			lw.fail(p.Pos, "duplicate procedure %q", p.Name)
			return lw.err
		}
		proc := &Proc{Name: p.Name}
		lw.procs[p.Name] = proc
		lw.srcProcs[p.Name] = p
		lw.prog.Procs = append(lw.prog.Procs, proc)
	}
	for _, p := range src.Procs {
		lw.lowerProc(p)
		if lw.err != nil {
			return lw.err
		}
	}
	main := lw.procs["main"]
	if main == nil {
		return fmt.Errorf("ir: program %s has no procedure main", src.Name)
	}
	if len(main.Params) != 0 {
		return fmt.Errorf("ir: procedure main must take no parameters")
	}
	lw.prog.Main = main
	if cyc := lw.findRecursion(); cyc != "" {
		return fmt.Errorf("ir: recursive procedure %q is not supported", cyc)
	}
	lw.computeGhosts()
	return lw.err
}

func typeOf(t zpl.TypeName) Type {
	switch t {
	case zpl.TypeInteger:
		return Integer
	case zpl.TypeBoolean:
		return Boolean
	default:
		return Float
	}
}

func (lw *lowerer) declareScalarName(pos zpl.Pos, name string) bool {
	if _, dup := lw.scalars[name]; dup {
		lw.fail(pos, "redeclaration of %q", name)
		return false
	}
	if _, dup := lw.arrays[name]; dup {
		lw.fail(pos, "redeclaration of %q", name)
		return false
	}
	return true
}

func (lw *lowerer) decl(d zpl.Decl) {
	switch d := d.(type) {
	case *zpl.ConfigDecl:
		for _, name := range d.Names {
			if !lw.declareScalarName(d.Pos, name) {
				return
			}
			init, sh := lw.expr(d.Init, exprCtx{})
			if sh != scalarShape {
				lw.fail(d.Pos, "config %q initializer must be scalar", name)
				return
			}
			s := lw.newScalar(name, typeOf(d.Type), ConfigVar, init)
			lw.scalars[name] = s
			lw.prog.Configs = append(lw.prog.Configs, s)
		}
	case *zpl.ConstDecl:
		if !lw.declareScalarName(d.Pos, d.Name) {
			return
		}
		val, sh := lw.expr(d.Value, exprCtx{})
		if sh != scalarShape {
			lw.fail(d.Pos, "constant %q must be scalar", d.Name)
			return
		}
		s := lw.newScalar(d.Name, typeOf(d.Type), ConstVar, val)
		lw.scalars[d.Name] = s
		lw.prog.Consts = append(lw.prog.Consts, s)
	case *zpl.RegionDecl:
		if _, dup := lw.regions[d.Name]; dup {
			lw.fail(d.Pos, "redeclaration of region %q", d.Name)
			return
		}
		if len(d.Ranges) < 1 || len(d.Ranges) > grid.MaxRank {
			lw.fail(d.Pos, "region %q must have rank 1..%d", d.Name, grid.MaxRank)
			return
		}
		r := &RegionSym{Name: d.Name, RankN: len(d.Ranges), ID: len(lw.prog.Regions)}
		for i, rg := range d.Ranges {
			lo, shLo := lw.expr(rg.Lo, exprCtx{})
			hi, shHi := lw.expr(rg.Hi, exprCtx{})
			if shLo != scalarShape || shHi != scalarShape {
				lw.fail(d.Pos, "region %q bounds must be scalar", d.Name)
				return
			}
			r.Bounds[i] = [2]Expr{lo, hi}
		}
		lw.regions[d.Name] = r
		lw.prog.Regions = append(lw.prog.Regions, r)
	case *zpl.DirectionDecl:
		if _, dup := lw.dirs[d.Name]; dup {
			lw.fail(d.Pos, "redeclaration of direction %q", d.Name)
			return
		}
		if len(d.Comps) < 1 || len(d.Comps) > grid.MaxRank {
			lw.fail(d.Pos, "direction %q must have 1..%d components", d.Name, grid.MaxRank)
			return
		}
		var off grid.Offset
		for i, c := range d.Comps {
			v, ok := lw.constInt(c)
			if !ok {
				lw.fail(d.Pos, "direction %q component %d is not a constant integer", d.Name, i+1)
				return
			}
			off[i] = v
		}
		ds := &DirSym{Name: d.Name, Off: off}
		lw.dirs[d.Name] = ds
		lw.prog.Dirs = append(lw.prog.Dirs, ds)
	case *zpl.VarDecl:
		lw.varDecl(d, GlobalVar, "")
	default:
		panic(fmt.Sprintf("ir: unknown decl %T", d))
	}
}

// varDecl declares variables; procPrefix disambiguates procedure-local
// array names, which are hoisted to the program level (legal because the
// subset forbids recursion).
func (lw *lowerer) varDecl(d *zpl.VarDecl, kind ScalarKind, procPrefix string) {
	for _, name := range d.Names {
		if d.Region == "" {
			if kind == LocalVar {
				if _, dup := lw.localScalar[name]; dup {
					lw.fail(d.Pos, "redeclaration of local %q", name)
					return
				}
				s := lw.newScalar(name, typeOf(d.Type), LocalVar, nil)
				lw.localScalar[name] = s
				continue
			}
			if !lw.declareScalarName(d.Pos, name) {
				return
			}
			lw.scalars[name] = lw.newScalar(name, typeOf(d.Type), GlobalVar, nil)
			continue
		}
		reg := lw.regions[d.Region]
		if reg == nil {
			lw.fail(d.Pos, "unknown region %q in declaration of %q", d.Region, name)
			return
		}
		key := name
		if procPrefix != "" {
			key = procPrefix + "." + name
		}
		if _, dup := lw.arrays[key]; dup {
			lw.fail(d.Pos, "redeclaration of array %q", name)
			return
		}
		if _, dup := lw.scalars[key]; dup && procPrefix == "" {
			lw.fail(d.Pos, "redeclaration of %q", name)
			return
		}
		a := &ArraySym{Name: key, Type: typeOf(d.Type), Region: reg, ID: len(lw.prog.Arrays)}
		lw.arrays[key] = a
		lw.prog.Arrays = append(lw.prog.Arrays, a)
	}
}

// constInt evaluates a compile-time integer expression (direction
// components): literals, constants with literal values, unary minus and
// the four integer operators.
func (lw *lowerer) constInt(e zpl.Expr) (int, bool) {
	switch e := e.(type) {
	case *zpl.NumLit:
		if e.Value != math.Trunc(e.Value) {
			return 0, false
		}
		return int(e.Value), true
	case *zpl.UnaryExpr:
		if e.Op != zpl.MINUS {
			return 0, false
		}
		v, ok := lw.constInt(e.X)
		return -v, ok
	case *zpl.BinaryExpr:
		x, okx := lw.constInt(e.X)
		y, oky := lw.constInt(e.Y)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case zpl.PLUS:
			return x + y, true
		case zpl.MINUS:
			return x - y, true
		case zpl.STAR:
			return x * y, true
		case zpl.SLASH:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		}
		return 0, false
	case *zpl.Ident:
		s := lw.scalars[e.Name]
		if s == nil || s.Kind != ConstVar {
			return 0, false
		}
		if c, ok := s.Init.(*Const); ok && c.Val == math.Trunc(c.Val) {
			return int(c.Val), true
		}
		return 0, false
	}
	return 0, false
}

func (lw *lowerer) lowerProc(p *zpl.ProcDecl) {
	proc := lw.procs[p.Name]
	lw.curProc = p.Name
	lw.localScalar = map[string]*ScalarSym{}
	lw.regionStack = nil
	lw.calls[p.Name] = map[string]bool{}
	for _, pa := range p.Params {
		if _, dup := lw.localScalar[pa.Name]; dup {
			lw.fail(p.Pos, "duplicate parameter %q", pa.Name)
			return
		}
		s := lw.newScalar(pa.Name, typeOf(pa.Type), ParamVar, nil)
		lw.localScalar[pa.Name] = s
		proc.Params = append(proc.Params, s)
	}
	for _, l := range p.Locals {
		lw.varDecl(l, LocalVar, p.Name)
	}
	proc.Body = lw.stmts(p.Body)
}

func (lw *lowerer) findRecursion() string {
	state := map[string]int{} // 0 unvisited, 1 in-stack, 2 done
	var visit func(string) string
	visit = func(name string) string {
		switch state[name] {
		case 1:
			return name
		case 2:
			return ""
		}
		state[name] = 1
		for callee := range lw.calls[name] {
			if c := visit(callee); c != "" {
				return c
			}
		}
		state[name] = 2
		return ""
	}
	for name := range lw.procs {
		if c := visit(name); c != "" {
			return c
		}
	}
	return ""
}

func (lw *lowerer) computeGhosts() {
	var visitExpr func(Expr)
	visitExpr = func(e Expr) {
		switch e := e.(type) {
		case *ArrayRef:
			for _, c := range e.Off {
				if c < 0 {
					c = -c
				}
				if c > e.Array.Ghost {
					e.Array.Ghost = c
				}
			}
		case *Unary:
			visitExpr(e.X)
		case *Binary:
			visitExpr(e.X)
			visitExpr(e.Y)
		case *Intrinsic:
			for _, a := range e.Args {
				visitExpr(a)
			}
		case *Reduce:
			visitExpr(e.X)
		}
	}
	var visitStmts func([]Stmt)
	visitStmts = func(body []Stmt) {
		for _, s := range body {
			switch s := s.(type) {
			case *AssignArray:
				visitExpr(s.RHS)
			case *AssignScalar:
				visitExpr(s.RHS)
			case *If:
				visitStmts(s.Then)
				visitStmts(s.Else)
			case *Repeat:
				visitStmts(s.Body)
			case *While:
				visitStmts(s.Body)
			case *For:
				visitStmts(s.Body)
			}
		}
	}
	for _, p := range lw.prog.Procs {
		visitStmts(p.Body)
	}
}

func (lw *lowerer) stmts(body []zpl.Stmt) []Stmt {
	var out []Stmt
	for _, s := range body {
		out = append(out, lw.stmt(s)...)
	}
	return out
}

func (lw *lowerer) currentRegion(pos zpl.Pos) (RegionExpr, bool) {
	if len(lw.regionStack) == 0 {
		lw.fail(pos, "statement requires an enclosing region scope")
		return RegionExpr{}, false
	}
	return lw.regionStack[len(lw.regionStack)-1], true
}

func (lw *lowerer) stmt(s zpl.Stmt) []Stmt {
	switch s := s.(type) {
	case *zpl.ScopeStmt:
		ref, ok := lw.regionRef(s.Pos, s.Region)
		if !ok {
			return nil
		}
		lw.regionStack = append(lw.regionStack, ref)
		out := lw.stmt(s.Body)
		lw.regionStack = lw.regionStack[:len(lw.regionStack)-1]
		return out

	case *zpl.CompoundStmt:
		return lw.stmts(s.Body)

	case *zpl.AssignStmt:
		return lw.assign(s)

	case *zpl.IfStmt:
		cond := lw.scalarExpr(s.Pos, s.Cond, "if condition")
		node := &If{Pos: s.Pos, Cond: cond, Then: lw.stmts(s.Then)}
		// elsif arms lower to nested ifs.
		cur := node
		for _, arm := range s.Elifs {
			inner := &If{Pos: s.Pos, Cond: lw.scalarExpr(s.Pos, arm.Cond, "elsif condition"), Then: lw.stmts(arm.Body)}
			cur.Else = []Stmt{inner}
			cur = inner
		}
		if s.Else != nil {
			cur.Else = lw.stmts(s.Else)
		}
		return []Stmt{node}

	case *zpl.RepeatStmt:
		body := lw.stmts(s.Body)
		cond := lw.scalarExpr(s.Pos, s.Until, "until condition")
		return []Stmt{&Repeat{Pos: s.Pos, Body: body, Until: cond}}

	case *zpl.WhileStmt:
		cond := lw.scalarExpr(s.Pos, s.Cond, "while condition")
		return []Stmt{&While{Pos: s.Pos, Cond: cond, Body: lw.stmts(s.Body)}}

	case *zpl.ForStmt:
		lo := lw.scalarExpr(s.Pos, s.Lo, "for bound")
		hi := lw.scalarExpr(s.Pos, s.Hi, "for bound")
		v := lw.newScalar(s.Var, Integer, LoopVar, nil)
		prev, shadowed := lw.localScalar[s.Var]
		lw.localScalar[s.Var] = v
		body := lw.stmts(s.Body)
		if shadowed {
			lw.localScalar[s.Var] = prev
		} else {
			delete(lw.localScalar, s.Var)
		}
		return []Stmt{&For{Pos: s.Pos, Var: v, Lo: lo, Hi: hi, Down: s.Down, Body: body}}

	case *zpl.CallStmt:
		callee := lw.procs[s.Name]
		if callee == nil {
			lw.fail(s.Pos, "call to unknown procedure %q", s.Name)
			return nil
		}
		srcCallee := lw.srcProcs[s.Name]
		if len(s.Args) != len(srcCallee.Params) {
			lw.fail(s.Pos, "procedure %q takes %d arguments, got %d", s.Name, len(srcCallee.Params), len(s.Args))
			return nil
		}
		args := make([]Expr, len(s.Args))
		for i, a := range s.Args {
			args[i] = lw.scalarExpr(s.Pos, a, "procedure argument")
		}
		lw.calls[lw.curProc][s.Name] = true
		return []Stmt{&Call{Pos: s.Pos, Proc: callee, Args: args}}

	case *zpl.WriteStmt:
		args := make([]Expr, len(s.Args))
		for i, a := range s.Args {
			if str, ok := a.(*zpl.StrLit); ok {
				args[i] = &Str{Val: str.Value}
				continue
			}
			args[i] = lw.scalarExpr(s.Pos, a, "writeln argument")
		}
		return []Stmt{&Write{Pos: s.Pos, Args: args}}
	}
	panic(fmt.Sprintf("ir: unknown stmt %T", s))
}

func (lw *lowerer) assign(s *zpl.AssignStmt) []Stmt {
	// Array assignment?
	if arr := lw.lookupArray(s.LHS); arr != nil {
		reg, ok := lw.currentRegion(s.Pos)
		if !ok {
			return nil
		}
		if reg.Rank() != arr.Region.RankN {
			lw.fail(s.Pos, "region rank %d does not match array %q rank %d", reg.Rank(), arr.Name, arr.Region.RankN)
			return nil
		}
		rhs, _ := lw.expr(s.RHS, exprCtx{allowArray: true, rank: arr.Region.RankN})
		node := &AssignArray{ID: lw.prog.NumArrayStmts, Pos: s.Pos, Region: reg, LHS: arr, RHS: rhs}
		lw.prog.NumArrayStmts++
		node.Uses = collectUses(rhs)
		node.Flops = countFlops(rhs) + 1 // +1 for the store
		return []Stmt{node}
	}
	sym := lw.lookupScalar(s.LHS)
	if sym == nil {
		lw.fail(s.Pos, "assignment to undeclared variable %q", s.LHS)
		return nil
	}
	if sym.Kind == ConstVar || sym.Kind == ConfigVar {
		lw.fail(s.Pos, "cannot assign to constant %q", s.LHS)
		return nil
	}
	rhs, sh := lw.expr(s.RHS, exprCtx{allowReduce: true})
	if sh != scalarShape {
		lw.fail(s.Pos, "scalar %q assigned an array-shaped expression (missing reduction?)", s.LHS)
		return nil
	}
	node := &AssignScalar{Pos: s.Pos, LHS: sym, RHS: rhs}
	node.Uses = collectUses(rhs)
	node.HasReduce = hasReduce(rhs)
	node.Flops = countFlops(rhs)
	if node.HasReduce {
		reg, ok := lw.currentRegion(s.Pos)
		if !ok {
			return nil
		}
		node.Region = reg
	} else if len(node.Uses) > 0 {
		lw.fail(s.Pos, "scalar assignment may only read arrays inside a reduction")
		return nil
	}
	return []Stmt{node}
}

func (lw *lowerer) lookupScalar(name string) *ScalarSym {
	if s, ok := lw.localScalar[name]; ok {
		return s
	}
	return lw.scalars[name]
}

func (lw *lowerer) lookupArray(name string) *ArraySym {
	if lw.curProc != "" {
		if a, ok := lw.arrays[lw.curProc+"."+name]; ok {
			return a
		}
	}
	return lw.arrays[name]
}

func (lw *lowerer) regionRef(pos zpl.Pos, ref zpl.RegionRef) (RegionExpr, bool) {
	if ref.Name != "" {
		r := lw.regions[ref.Name]
		if r == nil {
			lw.fail(pos, "unknown region %q", ref.Name)
			return RegionExpr{}, false
		}
		return RegionExpr{Sym: r}, true
	}
	if len(ref.Ranges) < 1 || len(ref.Ranges) > grid.MaxRank {
		lw.fail(pos, "region literal must have rank 1..%d", grid.MaxRank)
		return RegionExpr{}, false
	}
	out := RegionExpr{RankN: len(ref.Ranges), Slot: len(lw.prog.Literals)}
	for i, rg := range ref.Ranges {
		lo := lw.scalarExpr(pos, rg.Lo, "region bound")
		hi := lw.scalarExpr(pos, rg.Hi, "region bound")
		out.Bounds[i] = [2]Expr{lo, hi}
	}
	lw.prog.Literals = append(lw.prog.Literals, out)
	return out, true
}

// scalarExpr lowers an expression that must be scalar shaped.
func (lw *lowerer) scalarExpr(pos zpl.Pos, e zpl.Expr, what string) Expr {
	out, sh := lw.expr(e, exprCtx{})
	if sh != scalarShape {
		lw.fail(pos, "%s must be scalar (no array references)", what)
	}
	return out
}

type exprCtx struct {
	allowArray  bool
	allowReduce bool
	rank        int // expected array rank, 0 if unconstrained
}

func (lw *lowerer) expr(e zpl.Expr, ctx exprCtx) (Expr, shape) {
	switch e := e.(type) {
	case *zpl.NumLit:
		t := Float
		if e.IsInt {
			t = Integer
		}
		return &Const{Val: e.Value, Typ: t}, scalarShape

	case *zpl.BoolLit:
		v := 0.0
		if e.Value {
			v = 1.0
		}
		return &Const{Val: v, Typ: Boolean}, scalarShape

	case *zpl.StrLit:
		lw.fail(e.Pos, "string literal outside writeln")
		return &Const{}, scalarShape

	case *zpl.Ident:
		if s := lw.lookupScalar(e.Name); s != nil {
			return &ScalarRef{Sym: s}, scalarShape
		}
		if a := lw.lookupArray(e.Name); a != nil {
			if !ctx.allowArray {
				lw.fail(e.Pos, "array %q used in scalar context", e.Name)
			}
			lw.checkRank(e.Pos, a, ctx)
			return &ArrayRef{Array: a}, arrayShape
		}
		switch e.Name {
		case "Index1", "Index2", "Index3":
			if !ctx.allowArray {
				lw.fail(e.Pos, "%s used in scalar context", e.Name)
			}
			return &IndexRef{Dim: int(e.Name[5] - '0')}, arrayShape
		}
		lw.fail(e.Pos, "undeclared identifier %q", e.Name)
		return &Const{}, scalarShape

	case *zpl.AtExpr:
		a := lw.lookupArray(e.Array)
		if a == nil {
			lw.fail(e.Pos, "@ applied to unknown array %q", e.Array)
			return &Const{}, scalarShape
		}
		if !ctx.allowArray {
			lw.fail(e.Pos, "shifted array %q used in scalar context", e.Array)
		}
		lw.checkRank(e.Pos, a, ctx)
		var off grid.Offset
		if e.Dir.Name != "" {
			d := lw.dirs[e.Dir.Name]
			if d == nil {
				lw.fail(e.Pos, "unknown direction %q", e.Dir.Name)
				return &Const{}, scalarShape
			}
			off = d.Off
		} else {
			if len(e.Dir.Comps) < 1 || len(e.Dir.Comps) > grid.MaxRank {
				lw.fail(e.Pos, "direction literal must have 1..%d components", grid.MaxRank)
				return &Const{}, scalarShape
			}
			for i, c := range e.Dir.Comps {
				v, ok := lw.constInt(c)
				if !ok {
					lw.fail(e.Pos, "direction component %d is not a constant integer", i+1)
					return &Const{}, scalarShape
				}
				off[i] = v
			}
		}
		return &ArrayRef{Array: a, Off: off}, arrayShape

	case *zpl.UnaryExpr:
		x, sh := lw.expr(e.X, ctx)
		return &Unary{Op: e.Op, X: x}, sh

	case *zpl.BinaryExpr:
		x, shx := lw.expr(e.X, ctx)
		y, shy := lw.expr(e.Y, ctx)
		sh := scalarShape
		if shx == arrayShape || shy == arrayShape {
			sh = arrayShape
		}
		return &Binary{Op: e.Op, X: x, Y: y}, sh

	case *zpl.CallExpr:
		fn, ok := intrinsicNames[e.Name]
		if !ok {
			lw.fail(e.Pos, "unknown function %q", e.Name)
			return &Const{}, scalarShape
		}
		if len(e.Args) != intrinsicArity[fn] {
			lw.fail(e.Pos, "%s takes %d arguments, got %d", e.Name, intrinsicArity[fn], len(e.Args))
			return &Const{}, scalarShape
		}
		out := &Intrinsic{Fn: fn}
		sh := scalarShape
		for _, a := range e.Args {
			x, shx := lw.expr(a, ctx)
			if shx == arrayShape {
				sh = arrayShape
			}
			out.Args = append(out.Args, x)
		}
		return out, sh

	case *zpl.ReduceExpr:
		if !ctx.allowReduce {
			lw.fail(e.Pos, "reduction not allowed here (only in scalar assignments)")
			return &Const{}, scalarShape
		}
		var op ReduceOp
		switch e.Op {
		case "+":
			op = ReduceSum
		case "*":
			op = ReduceProd
		case "max":
			op = ReduceMax
		case "min":
			op = ReduceMin
		default:
			lw.fail(e.Pos, "unknown reduction operator %q", e.Op)
		}
		x, sh := lw.expr(e.X, exprCtx{allowArray: true})
		if sh != arrayShape {
			lw.fail(e.Pos, "reduction operand must be array shaped")
		}
		lw.prog.NumReduces++
		return &Reduce{ID: lw.prog.NumReduces - 1, Op: op, X: x}, scalarShape
	}
	panic(fmt.Sprintf("ir: unknown expr %T", e))
}

func (lw *lowerer) checkRank(pos zpl.Pos, a *ArraySym, ctx exprCtx) {
	if ctx.rank != 0 && a.Region.RankN != ctx.rank {
		lw.fail(pos, "array %q has rank %d, expected %d", a.Name, a.Region.RankN, ctx.rank)
	}
}

// collectUses returns the distinct (array, offset) references of an
// expression in left-to-right source order.
func collectUses(e Expr) []ArrayUse {
	var out []ArrayUse
	seen := map[ArrayUse]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *ArrayRef:
			u := ArrayUse{Array: e.Array, Off: e.Off}
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		case *Unary:
			walk(e.X)
		case *Binary:
			walk(e.X)
			walk(e.Y)
		case *Intrinsic:
			for _, a := range e.Args {
				walk(a)
			}
		case *Reduce:
			walk(e.X)
		}
	}
	walk(e)
	return out
}

func hasReduce(e Expr) bool {
	switch e := e.(type) {
	case *Reduce:
		return true
	case *Unary:
		return hasReduce(e.X)
	case *Binary:
		return hasReduce(e.X) || hasReduce(e.Y)
	case *Intrinsic:
		for _, a := range e.Args {
			if hasReduce(a) {
				return true
			}
		}
	}
	return false
}

// countFlops approximates the per-element arithmetic cost of an
// expression.
func countFlops(e Expr) int {
	switch e := e.(type) {
	case *Unary:
		return 1 + countFlops(e.X)
	case *Binary:
		return 1 + countFlops(e.X) + countFlops(e.Y)
	case *Intrinsic:
		n := intrinsicFlops[e.Fn]
		for _, a := range e.Args {
			n += countFlops(a)
		}
		return n
	case *Reduce:
		return 1 + countFlops(e.X)
	default:
		return 0
	}
}
