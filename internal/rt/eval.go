package rt

import (
	"fmt"
	"math"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// evalFn evaluates an expression at global index point (i, j, k).
type evalFn func(i, j, k int) float64

// compile translates an IR expression into a closure tree, cached per
// processor. Reductions never appear here; they are handled at statement
// level (evalWithReduce).
func (p *proc) compile(e ir.Expr) evalFn {
	if f, ok := p.fnCache[e]; ok {
		return f
	}
	f := p.compile1(e)
	if p.fnCache == nil {
		p.fnCache = map[ir.Expr]evalFn{}
	}
	p.fnCache[e] = f
	return f
}

func (p *proc) compile1(e ir.Expr) evalFn {
	switch e := e.(type) {
	case *ir.Const:
		v := e.Val
		return func(i, j, k int) float64 { return v }

	case *ir.ScalarRef:
		id := e.Sym.ID
		sc := p.scalars
		return func(i, j, k int) float64 { return sc[id] }

	case *ir.ArrayRef:
		f := p.fields[e.Array.ID]
		o0, o1, o2 := e.Off[0], e.Off[1], e.Off[2]
		if o0 == 0 && o1 == 0 && o2 == 0 {
			return func(i, j, k int) float64 { return f.At(i, j, k) }
		}
		return func(i, j, k int) float64 { return f.At(i+o0, j+o1, k+o2) }

	case *ir.IndexRef:
		switch e.Dim {
		case 1:
			return func(i, j, k int) float64 { return float64(i) }
		case 2:
			return func(i, j, k int) float64 { return float64(j) }
		default:
			return func(i, j, k int) float64 { return float64(k) }
		}

	case *ir.Unary:
		x := p.compile(e.X)
		if e.Op == zpl.MINUS {
			return func(i, j, k int) float64 { return -x(i, j, k) }
		}
		return func(i, j, k int) float64 { return boolVal(x(i, j, k) == 0) }

	case *ir.Binary:
		x := p.compile(e.X)
		y := p.compile(e.Y)
		switch e.Op {
		case zpl.PLUS:
			return func(i, j, k int) float64 { return x(i, j, k) + y(i, j, k) }
		case zpl.MINUS:
			return func(i, j, k int) float64 { return x(i, j, k) - y(i, j, k) }
		case zpl.STAR:
			return func(i, j, k int) float64 { return x(i, j, k) * y(i, j, k) }
		case zpl.SLASH:
			return func(i, j, k int) float64 { return x(i, j, k) / y(i, j, k) }
		default:
			op := e.Op
			return func(i, j, k int) float64 { return evalBinary(op, x(i, j, k), y(i, j, k)) }
		}

	case *ir.Intrinsic:
		args := make([]evalFn, len(e.Args))
		for i, a := range e.Args {
			args[i] = p.compile(a)
		}
		if fn := unaryFns[e.Fn]; fn != nil {
			x := args[0]
			return func(i, j, k int) float64 { return fn(x(i, j, k)) }
		}
		fn, x, y := binaryFns[e.Fn], args[0], args[1]
		return func(i, j, k int) float64 { return fn(x(i, j, k), y(i, j, k)) }

	case *ir.Reduce:
		panic("rt: reduction expression outside a scalar assignment")
	}
	panic(fmt.Sprintf("rt: cannot compile %T", e))
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// not is the logical negation of a ZPL truth value.
func not(v float64) float64 { return boolVal(v == 0) }

func evalUnary(op zpl.Kind, v float64) float64 {
	if op == zpl.MINUS {
		return -v
	}
	return not(v)
}

func evalBinary(op zpl.Kind, x, y float64) float64 {
	switch op {
	case zpl.PLUS:
		return x + y
	case zpl.MINUS:
		return x - y
	case zpl.STAR:
		return x * y
	case zpl.SLASH:
		return x / y
	case zpl.PERCENT:
		return math.Mod(x, y)
	case zpl.EQ:
		return boolVal(x == y)
	case zpl.NE:
		return boolVal(x != y)
	case zpl.LT:
		return boolVal(x < y)
	case zpl.LE:
		return boolVal(x <= y)
	case zpl.GT:
		return boolVal(x > y)
	case zpl.GE:
		return boolVal(x >= y)
	case zpl.KWAND:
		return boolVal(x != 0 && y != 0)
	case zpl.KWOR:
		return boolVal(x != 0 || y != 0)
	}
	panic(fmt.Sprintf("rt: unknown binary operator %v", op))
}

// unaryFns and binaryFns are the intrinsics as the Go functions they
// denote, by ir.IntrinsicFn: each is in exactly one of the two tables (nil
// in the other), by its arity. The closure interpreter, the scalar
// evaluators (evalIntrinsic) and the kernels' row loops all call through
// them, so the engines cannot drift apart.
var (
	unaryFns = [...]func(float64) float64{
		ir.FnAbs: math.Abs, ir.FnSqrt: math.Sqrt, ir.FnExp: math.Exp, ir.FnLog: math.Log,
		ir.FnSin: math.Sin, ir.FnCos: math.Cos, ir.FnSign: sign, ir.FnFloor: math.Floor,
	}
	binaryFns = [len(unaryFns)]func(x, y float64) float64{
		ir.FnMin: math.Min, ir.FnMax: math.Max, ir.FnPow: math.Pow,
	}
)

func sign(v float64) float64 {
	if v > 0 {
		return 1
	} else if v < 0 {
		return -1
	}
	return 0
}

func evalIntrinsic(fn ir.IntrinsicFn, args []float64) float64 {
	if f := unaryFns[fn]; f != nil {
		return f(args[0])
	}
	return binaryFns[fn](args[0], args[1])
}

// scalarEnv evaluates pure scalar expressions against a value table by
// direct tree walk: the shared table at setup (config and constant
// initializers, region bounds), a processor's own for its control flow —
// loop bounds, conditions, scalar assignments — and inside the kernels it
// runs (kctx.env). Such expressions evaluate in a handful of arithmetic
// ops, so the walk deliberately skips the closure compiler: compiling would
// mint one closure tree per (processor, expression) pair per run, which at
// 4096 processors is pure allocation and cache-lookup overhead.
type scalarEnv struct {
	vals []float64
	// p's closure compiler evaluates, at point (0,0,0), a node that can
	// legally appear only in array context. nil at setup, where no such
	// node is valid.
	p *proc
}

func (e *scalarEnv) eval(x ir.Expr) float64 {
	switch x := x.(type) {
	case *ir.Const:
		return x.Val
	case *ir.ScalarRef:
		return e.vals[x.Sym.ID]
	case *ir.Unary:
		return evalUnary(x.Op, e.eval(x.X))
	case *ir.Binary:
		return evalBinary(x.Op, e.eval(x.X), e.eval(x.Y))
	case *ir.Intrinsic:
		var args [2]float64 // ir.Lower checks arities: one or two arguments
		for i, a := range x.Args {
			args[i] = e.eval(a)
		}
		return evalIntrinsic(x.Fn, args[:len(x.Args)])
	}
	if e.p == nil {
		panic(fmt.Sprintf("rt: expression %T not valid at setup time", x))
	}
	return e.p.compile(x)(0, 0, 0)
}

func evalRegionBounds(ev *scalarEnv, rank int, bounds [grid.MaxRank][2]ir.Expr) (grid.Region, error) {
	spans := make([]grid.Span, rank)
	for d := 0; d < rank; d++ {
		lo := ev.eval(bounds[d][0])
		hi := ev.eval(bounds[d][1])
		if lo != math.Trunc(lo) || hi != math.Trunc(hi) {
			return grid.Region{}, fmt.Errorf("non-integer bounds %g..%g", lo, hi)
		}
		spans[d] = grid.Span{Lo: int(lo), Hi: int(hi)}
	}
	return grid.NewRegion(rank, spans...), nil
}
