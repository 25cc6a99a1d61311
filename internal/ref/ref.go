// Package ref is the ZPL subset's semantics (LANGUAGE.md) as a program: a
// dense, sequential, whole-array evaluator that walks the parsed program
// directly. It shares nothing with the compiler or the runtime — no IR, no
// distribution, no fields, no region slots, no communication plan, not even
// their operator tables — so it can be read as the definition the runtime is
// held to. Only tests import it (CI checks that no command, example or
// benchmark does).
package ref

import (
	"fmt"
	"maps"
	"math"
	"strings"

	"commopt/internal/grid"
	"commopt/internal/zpl"
)

// Array is one array's final contents: Data holds its declared region in
// row-major order.
type Array struct {
	Reg  grid.Region
	Data []float64
}

// point is a global index point; a rank-r point has 1 in its trailing
// coordinates, as a rank-r region has [1..1] in its trailing dimensions.
type point [grid.MaxRank]int

// index is the position of pt in Data, if the region holds it.
func (a *Array) index(pt point) (int, bool) {
	n := 0
	for d, s := range a.Reg.Spans {
		if !s.Contains(pt[d]) {
			return 0, false
		}
		n = n*s.Len() + pt[d] - s.Lo
	}
	return n, true
}

// At returns the value at global point (i, j, k): zero outside the array's
// region, which is what every read past its edge sees.
func (a *Array) At(i, j, k int) float64 {
	if n, ok := a.index(point{i, j, k}); ok {
		return a.Data[n]
	}
	return 0
}

// Result is what a program computed: every array, by the name the runtime
// reports it under (procedure p's local array A is "p.A"), and everything
// writeln printed.
type Result struct {
	Arrays map[string]*Array
	Output string
}

// runError is a program error found while running: Run recovers it and
// returns it.
type runError struct{ error }

// machine is a run's storage: every variable has one static cell, since
// the subset forbids recursion.
type machine struct {
	globals map[string]*float64 // configs, constants and global scalars
	arrays  map[string]*Array   // by Result name
	regions map[string]grid.Region
	dirs    map[string]point
	procs   map[string]*proc
	out     strings.Builder
}

// proc is one procedure: what its body's names denote — its parameters,
// locals and the loop variables in scope over the globals, where a nil cell
// is a loop variable out of scope — and its body.
type proc struct {
	decl    *zpl.ProcDecl
	scalars map[string]*float64
	arrays  map[string]*Array
}

// frame is where a statement runs: its procedure and the innermost region
// scope around it (nil at the top of a body: scopes do not reach callees).
type frame struct {
	m     *machine
	p     *proc
	scope *zpl.ScopeStmt
}

// Run executes prog, which ir.Lower must accept, with vars overriding its
// config variables by name. A run-time program error — a region, loop or
// direction bound that is not an integer — is returned, never panicked.
func Run(prog *zpl.Program, vars map[string]float64) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(runError)
			if !ok {
				panic(r)
			}
			err = e.error
		}
	}()
	m := &machine{
		globals: map[string]*float64{}, arrays: map[string]*Array{},
		regions: map[string]grid.Region{}, dirs: map[string]point{}, procs: map[string]*proc{},
	}
	global := frame{m: m, p: &proc{scalars: m.globals, arrays: m.arrays}}
	for _, d := range prog.Decls {
		global.declare(d, vars)
	}
	for _, d := range prog.Procs {
		p := &proc{decl: d, scalars: maps.Clone(m.globals), arrays: maps.Clone(m.arrays)}
		for _, pa := range d.Params {
			p.scalars[pa.Name] = new(float64)
		}
		for _, l := range d.Locals {
			m.alloc(l, p, d.Name+".")
		}
		m.procs[d.Name] = p
	}
	main := m.procs["main"]
	frame{m: m, p: main}.run(main.decl.Body)
	return &Result{Arrays: m.arrays, Output: m.out.String()}, nil
}

// declare evaluates one top-level declaration, in declaration order.
func (f frame) declare(d zpl.Decl, vars map[string]float64) {
	switch d := d.(type) {
	case *zpl.ConfigDecl:
		for _, name := range d.Names {
			v, ok := vars[name]
			if !ok {
				v = f.eval(d.Init, point{})
			}
			f.m.globals[name] = &v
		}
	case *zpl.ConstDecl:
		v := f.eval(d.Value, point{})
		f.m.globals[d.Name] = &v
	case *zpl.RegionDecl:
		f.m.regions[d.Name] = f.bounds(d.Pos, d.Ranges)
	case *zpl.DirectionDecl:
		f.m.dirs[d.Name] = f.offset(d.Pos, d.Comps)
	case *zpl.VarDecl:
		f.m.alloc(d, f.p, "")
	}
}

// alloc gives p the names of a var declaration, each a zeroed cell or a
// zeroed array over its declared region, reported under prefix+name.
func (m *machine) alloc(d *zpl.VarDecl, p *proc, prefix string) {
	for _, name := range d.Names {
		if d.Region == "" {
			p.scalars[name] = new(float64)
			continue
		}
		reg := m.regions[d.Region]
		a := &Array{Reg: reg, Data: make([]float64, reg.Size())}
		p.arrays[name], m.arrays[prefix+name] = a, a
	}
}

// integer evaluates a scalar expression that must be an integer.
func (f frame) integer(pos zpl.Pos, e zpl.Expr, what string) int {
	v := f.eval(e, point{})
	if v != math.Trunc(v) {
		panic(runError{zpl.Errorf(pos, "%s %g is not an integer", what, v)})
	}
	return int(v)
}

// bounds evaluates a region's ranges now: a declaration's at setup, a
// literal's at every statement that uses it — LANGUAGE.md's mid-block rule,
// which makes that the same as at the entry of the statement's block.
func (f frame) bounds(pos zpl.Pos, ranges []zpl.Range) grid.Region {
	spans := make([]grid.Span, len(ranges))
	for d, r := range ranges {
		spans[d] = grid.Span{Lo: f.integer(pos, r.Lo, "region bound"), Hi: f.integer(pos, r.Hi, "region bound")}
	}
	return grid.NewRegion(len(ranges), spans...)
}

func (f frame) offset(pos zpl.Pos, comps []zpl.Expr) (off point) {
	for d, c := range comps {
		off[d] = f.integer(pos, c, "direction component")
	}
	return off
}

// region is the index set of the statement running in f.
func (f frame) region() grid.Region {
	if name := f.scope.Region.Name; name != "" {
		return f.m.regions[name]
	}
	return f.bounds(f.scope.Pos, f.scope.Region.Ranges)
}

// each visits reg's points in row-major order.
func each(reg grid.Region, fn func(point)) {
	s := reg.Spans
	for i := s[0].Lo; i <= s[0].Hi; i++ {
		for j := s[1].Lo; j <= s[1].Hi; j++ {
			for k := s[2].Lo; k <= s[2].Hi; k++ {
				fn(point{i, j, k})
			}
		}
	}
}

func (f frame) run(body []zpl.Stmt) {
	for _, s := range body {
		f.exec(s)
	}
}

func (f frame) exec(s zpl.Stmt) {
	switch s := s.(type) {
	case *zpl.ScopeStmt:
		f.scope = s
		f.exec(s.Body)
	case *zpl.CompoundStmt:
		f.run(s.Body)
	case *zpl.AssignStmt:
		f.assign(s)
	case *zpl.IfStmt:
		for _, arm := range append([]zpl.ElifArm{{Cond: s.Cond, Body: s.Then}}, s.Elifs...) {
			if f.eval(arm.Cond, point{}) != 0 {
				f.run(arm.Body)
				return
			}
		}
		f.run(s.Else)
	case *zpl.RepeatStmt:
		f.run(s.Body)
		for f.eval(s.Until, point{}) == 0 {
			f.run(s.Body)
		}
	case *zpl.WhileStmt:
		for f.eval(s.Cond, point{}) != 0 {
			f.run(s.Body)
		}
	case *zpl.ForStmt:
		f.loop(s)
	case *zpl.CallStmt:
		q := f.m.procs[s.Name]
		for i, a := range s.Args {
			*q.scalars[q.decl.Params[i].Name] = f.eval(a, point{})
		}
		frame{m: f.m, p: q}.run(q.decl.Body)
	case *zpl.WriteStmt:
		for _, a := range s.Args {
			if str, ok := a.(*zpl.StrLit); ok {
				f.m.out.WriteString(str.Value)
			} else {
				fmt.Fprintf(&f.m.out, "%g", f.eval(a, point{}))
			}
		}
		f.m.out.WriteByte('\n')
	}
}

// loop runs a for statement. Its variable is a name of its own over the
// body, as ir.Lower scopes it, and its bounds are evaluated once.
func (f frame) loop(s *zpl.ForStmt) {
	lo, hi := f.integer(s.Pos, s.Lo, "for bound"), f.integer(s.Pos, s.Hi, "for bound")
	step := 1
	if s.Down {
		step = -1
	}
	prev, v := f.p.scalars[s.Var], new(float64)
	f.p.scalars[s.Var] = v
	for i := lo; i*step <= hi*step; i += step {
		*v = float64(i)
		f.run(s.Body)
	}
	f.p.scalars[s.Var] = prev
}

// assign stores to an array where the name denotes one, as ir.Lower
// resolves an assignment's left side, and to a scalar otherwise.
func (f frame) assign(s *zpl.AssignStmt) {
	a, isArray := f.p.arrays[s.LHS]
	if !isArray {
		*f.p.scalars[s.LHS] = f.eval(s.RHS, point{})
		return
	}
	// Whole-array semantics: every value of the right-hand side is computed
	// before the first store. Points outside the LHS's region are dropped.
	reg := f.region().Intersect(a.Reg)
	vals := make([]float64, 0, reg.Size())
	each(reg, func(pt point) { vals = append(vals, f.eval(s.RHS, pt)) })
	each(reg, func(pt point) {
		n, _ := a.index(pt)
		a.Data[n], vals = vals[0], vals[1:]
	})
}

// eval is e's value at point pt, which a scalar expression ignores.
func (f frame) eval(e zpl.Expr, pt point) float64 {
	switch e := e.(type) {
	case *zpl.NumLit:
		return e.Value
	case *zpl.BoolLit:
		return truth(e.Value)
	case *zpl.Ident:
		if v := f.p.scalars[e.Name]; v != nil {
			return *v
		}
		if a, ok := f.p.arrays[e.Name]; ok {
			return a.At(pt[0], pt[1], pt[2])
		}
		return float64(pt[e.Name[len("Index")]-'1']) // Index1, Index2, Index3
	case *zpl.AtExpr:
		off, ok := f.m.dirs[e.Dir.Name]
		if !ok {
			off = f.offset(e.Pos, e.Dir.Comps)
		}
		return f.p.arrays[e.Array].At(pt[0]+off[0], pt[1]+off[1], pt[2]+off[2])
	case *zpl.UnaryExpr:
		x := f.eval(e.X, pt)
		if e.Op == zpl.MINUS {
			return -x
		}
		return truth(x == 0)
	case *zpl.BinaryExpr:
		return operators[e.Op](f.eval(e.X, pt), f.eval(e.Y, pt))
	case *zpl.CallExpr:
		x := f.eval(e.Args[0], pt)
		if fn, ok := unaryFns[e.Name]; ok {
			return fn(x)
		}
		return binaryFns[e.Name](x, f.eval(e.Args[1], pt))
	case *zpl.ReduceExpr:
		return f.reduce(e)
	}
	panic(fmt.Sprintf("ref: unexpected expression %T", e))
}

// reduce folds the operand over the statement's region in row-major order.
// A max (min) keeps its accumulator only where it is greater (less) than
// the element, so a NaN element replaces it and the next element replaces
// the NaN.
func (f frame) reduce(e *zpl.ReduceExpr) float64 {
	acc := map[string]float64{"+": 0, "*": 1, "max": math.Inf(-1), "min": math.Inf(1)}[e.Op]
	each(f.region(), func(pt point) {
		v := f.eval(e.X, pt)
		switch e.Op {
		case "+":
			acc += v
		case "*":
			acc *= v
		case "max":
			if !(acc > v) {
				acc = v
			}
		default:
			if !(acc < v) {
				acc = v
			}
		}
	})
	return acc
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// The operators and intrinsics (LANGUAGE.md), by token and by name.
var (
	operators = map[zpl.Kind]func(x, y float64) float64{
		zpl.PLUS:    func(x, y float64) float64 { return x + y },
		zpl.MINUS:   func(x, y float64) float64 { return x - y },
		zpl.STAR:    func(x, y float64) float64 { return x * y },
		zpl.SLASH:   func(x, y float64) float64 { return x / y },
		zpl.PERCENT: math.Mod,
		zpl.EQ:      func(x, y float64) float64 { return truth(x == y) },
		zpl.NE:      func(x, y float64) float64 { return truth(x != y) },
		zpl.LT:      func(x, y float64) float64 { return truth(x < y) },
		zpl.LE:      func(x, y float64) float64 { return truth(x <= y) },
		zpl.GT:      func(x, y float64) float64 { return truth(x > y) },
		zpl.GE:      func(x, y float64) float64 { return truth(x >= y) },
		zpl.KWAND:   func(x, y float64) float64 { return truth(x != 0 && y != 0) },
		zpl.KWOR:    func(x, y float64) float64 { return truth(x != 0 || y != 0) },
	}
	unaryFns = map[string]func(float64) float64{
		"abs": math.Abs, "fabs": math.Abs, "sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log,
		"ln": math.Log, "sin": math.Sin, "cos": math.Cos, "floor": math.Floor,
		"sign": func(x float64) float64 { return truth(x > 0) - truth(x < 0) },
	}
	binaryFns = map[string]func(x, y float64) float64{"min": math.Min, "max": math.Max, "pow": math.Pow}
)
