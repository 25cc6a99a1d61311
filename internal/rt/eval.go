package rt

import (
	"fmt"
	"math"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

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
// in the other), by its arity. The scalar evaluators (evalIntrinsic) and
// the kernels' row loops both call through them.
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
// ops, so nothing is compiled for them: at 4096 processors one compiled
// form per (processor, expression) pair would be pure allocation.
type scalarEnv struct {
	vals []float64
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
	panic(fmt.Sprintf("rt: %T in a scalar expression (ir.Lower rejects it)", x))
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
