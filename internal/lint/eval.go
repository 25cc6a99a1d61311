package lint

import (
	"math"

	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// Compile-time expression evaluation under the default config values,
// with ir's operators. Anything the linter cannot fold (loop variables,
// runtime scalars, intrinsics) simply opts the dependent rule out rather
// than guessing.

// evalConst folds e to a number using env (config defaults and declared
// constants). The second result is false when e is not compile-time
// evaluable.
func evalConst(e zpl.Expr, env map[string]float64) (float64, bool) {
	switch e := e.(type) {
	case *zpl.NumLit:
		return e.Value, true
	case *zpl.Ident:
		v, ok := env[e.Name]
		return v, ok
	case *zpl.UnaryExpr:
		x, ok := evalConst(e.X, env)
		return ir.EvalUnary(e.Op, x), ok
	case *zpl.BinaryExpr:
		x, okx := evalConst(e.X, env)
		y, oky := evalConst(e.Y, env)
		return ir.EvalBinary(e.Op, x, y), okx && oky
	}
	return 0, false
}

// evalInt folds e to an integer, failing on non-integral results.
func evalInt(e zpl.Expr, env map[string]float64) (int, bool) {
	v, ok := evalConst(e, env)
	if !ok || v != math.Trunc(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return int(v), true
}

// evalRanges folds region bounds to [lo, hi] pairs per dimension.
func evalRanges(ranges []zpl.Range, env map[string]float64) ([][2]int, bool) {
	out := make([][2]int, len(ranges))
	for i, r := range ranges {
		lo, okLo := evalInt(r.Lo, env)
		hi, okHi := evalInt(r.Hi, env)
		if !okLo || !okHi {
			return nil, false
		}
		out[i] = [2]int{lo, hi}
	}
	return out, true
}

// evalOffsets folds a direction's component expressions to integers.
func evalOffsets(comps []zpl.Expr, env map[string]float64) ([]int, bool) {
	out := make([]int, len(comps))
	for i, c := range comps {
		v, ok := evalInt(c, env)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}
