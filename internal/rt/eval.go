package rt

import (
	"fmt"
	"math"

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
