package ref

import (
	"math"
	"testing"

	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// TestOperatorsMatchIR holds ir's operators and intrinsic table, which the
// runtime, the cost predictor and the linter all evaluate through, to this
// package's independent tables: by operator and by intrinsic name, bit for
// bit (any NaN equals any NaN), over every pair of a grid that reaches
// `%` and `/` by zero, pow(0, -1), sign(-0) and min/max against NaN.
func TestOperatorsMatchIR(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 7, -2, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}

	for _, op := range []zpl.Kind{zpl.MINUS, zpl.KWNOT} {
		for _, x := range vals {
			want := frame{}.eval(&zpl.UnaryExpr{Op: op, X: &zpl.NumLit{Value: x}}, point{})
			if got := ir.EvalUnary(op, x); !same(got, want) {
				t.Errorf("unary %v %g: ir %g, ref %g", op, x, got, want)
			}
		}
	}
	for op, fn := range operators {
		for _, x := range vals {
			for _, y := range vals {
				if got, want := ir.EvalBinary(op, x, y), fn(x, y); !same(got, want) {
					t.Errorf("%g %v %g: ir %g, ref %g", x, op, y, got, want)
				}
			}
		}
	}

	// Each name goes through ir.Lower, so the name table is checked too.
	reached := map[ir.IntrinsicFn]bool{}
	check := func(name, args string, ref func(x, y float64) float64) {
		ast, err := zpl.Parse("program t; var x, y, r : float; procedure main(); begin r := " + name + "(" + args + "); end;")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		call := prog.Main.Body[0].(*ir.AssignScalar).RHS.(*ir.Intrinsic)
		reached[call.Fn] = true
		for _, x := range vals {
			for _, y := range vals {
				if got, want := ir.Eval(call, []float64{x, y, 0}), ref(x, y); !same(got, want) {
					t.Errorf("%s(%g, %g): ir %g, ref %g", name, x, y, got, want)
				}
			}
		}
	}
	for name, fn := range unaryFns {
		check(name, "x", func(x, _ float64) float64 { return fn(x) })
	}
	for name, fn := range binaryFns {
		check(name, "x, y", fn)
	}
	if len(reached) != len(ir.Intrinsics) {
		t.Errorf("ref names %d of ir's %d intrinsics", len(reached), len(ir.Intrinsics))
	}
}
