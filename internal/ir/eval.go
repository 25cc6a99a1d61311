package ir

import (
	"fmt"
	"math"

	"commopt/internal/zpl"
)

// The scalar semantics of the language (LANGUAGE.md): what every operator
// and intrinsic computes. Every scalar is a float64, a truth value is 1 or
// 0, and `/` is real division everywhere. The runtime, the cost predictor,
// the linter and Lower's direction folding all evaluate through this file;
// internal/ref keeps its own tables, and its tests hold these to them.

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// EvalUnary applies - or not.
func EvalUnary(op zpl.Kind, v float64) float64 {
	if op == zpl.MINUS {
		return -v
	}
	return boolVal(v == 0)
}

// EvalBinary applies an infix operator.
func EvalBinary(op zpl.Kind, x, y float64) float64 {
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
	panic(fmt.Sprintf("ir: unknown binary operator %v", op))
}

// IntrinsicDef is one built-in function: the Go function it denotes, Unary
// for one argument or Binary for two (the other is nil), and its
// per-element cost in equivalent arithmetic operations.
type IntrinsicDef struct {
	Unary  func(float64) float64
	Binary func(x, y float64) float64
	flops  int
}

func (d *IntrinsicDef) arity() int {
	if d.Unary != nil {
		return 1
	}
	return 2
}

// Intrinsics defines every built-in function, by IntrinsicFn.
var Intrinsics = [...]IntrinsicDef{
	FnAbs:   {Unary: math.Abs, flops: 1},
	FnSqrt:  {Unary: math.Sqrt, flops: 6},
	FnExp:   {Unary: math.Exp, flops: 10},
	FnLog:   {Unary: math.Log, flops: 10},
	FnSin:   {Unary: math.Sin, flops: 10},
	FnCos:   {Unary: math.Cos, flops: 10},
	FnMin:   {Binary: math.Min, flops: 1},
	FnMax:   {Binary: math.Max, flops: 1},
	FnPow:   {Binary: math.Pow, flops: 12},
	FnSign:  {Unary: sign, flops: 1},
	FnFloor: {Unary: math.Floor, flops: 1},
}

func sign(v float64) float64 {
	if v > 0 {
		return 1
	} else if v < 0 {
		return -1
	}
	return 0
}

// Apply evaluates the intrinsic on its one or two arguments.
func (fn IntrinsicFn) Apply(args []float64) float64 {
	d := &Intrinsics[fn]
	if d.Unary != nil {
		return d.Unary(args[0])
	}
	return d.Binary(args[0], args[1])
}

// Eval evaluates a pure scalar expression — no array, index or reduction
// reference — against a value table indexed by ScalarSym.ID. It is the one
// scalar evaluator: of setup (Program.Setup), of the runtime's control flow
// and kernels, and of the cost predictor's folded decisions.
func Eval(e Expr, vals []float64) float64 {
	switch e := e.(type) {
	case *Const:
		return e.Val
	case *ScalarRef:
		return vals[e.Sym.ID]
	case *Unary:
		return EvalUnary(e.Op, Eval(e.X, vals))
	case *Binary:
		return EvalBinary(e.Op, Eval(e.X, vals), Eval(e.Y, vals))
	case *Intrinsic:
		var args [2]float64 // Lower checks arities: one or two arguments
		for i, a := range e.Args {
			args[i] = Eval(a, vals)
		}
		return e.Fn.Apply(args[:len(e.Args)])
	}
	panic(fmt.Sprintf("ir: %T in a scalar expression (Lower rejects it)", e))
}
