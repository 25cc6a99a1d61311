package rt

// This file holds the row primitives: the loops every compiled kernel
// bottoms out in, one IEEE operation per element in the interpreter's
// operand order. Each checks once, on entry, that its operand rows cover
// dst, so the compiler proves every index in range and the loops carry no
// per-element bounds check. CI holds them to that:
//
//	go build -gcflags=-d=ssa/check_bce ./internal/rt 2>&1 | grep rowops.go
//
// must print nothing. Aliasing between dst and an operand is safe
// everywhere: each element is read before it is written.

// covers panics unless row xs is at least as long as dst. Only a bug in the
// kernel compiler can make it fire: every row of a kernel has the kernel's L.
func covers(dst, xs []float64) {
	if len(xs) < len(dst) {
		panic("rt: kernel operand row shorter than its destination")
	}
}

// rowOp is one elementwise binary operation. The four arithmetic operators
// have loops of their own; everything else — comparisons, %, and/or, min,
// max, pow — is opFn and goes through fn per element.
type rowOp struct {
	kind uint8
	fn   func(x, y float64) float64 // opFn only
}

const (
	opAdd uint8 = iota
	opSub
	opMul
	opDiv
	opFn
)

// binRow is dst = xs ∘ ys.
func binRow(op rowOp, dst, xs, ys []float64) {
	covers(dst, xs)
	covers(dst, ys)
	switch op.kind {
	case opAdd:
		for n := range dst {
			dst[n] = xs[n] + ys[n]
		}
	case opSub:
		for n := range dst {
			dst[n] = xs[n] - ys[n]
		}
	case opMul:
		for n := range dst {
			dst[n] = xs[n] * ys[n]
		}
	case opDiv:
		for n := range dst {
			dst[n] = xs[n] / ys[n]
		}
	default:
		for n := range dst {
			dst[n] = op.fn(xs[n], ys[n])
		}
	}
}

// rowScalar is dst = xs ∘ v.
func rowScalar(op rowOp, dst, xs []float64, v float64) {
	covers(dst, xs)
	switch op.kind {
	case opAdd:
		for n := range dst {
			dst[n] = xs[n] + v
		}
	case opSub:
		for n := range dst {
			dst[n] = xs[n] - v
		}
	case opMul:
		for n := range dst {
			dst[n] = xs[n] * v
		}
	case opDiv:
		for n := range dst {
			dst[n] = xs[n] / v
		}
	default:
		for n := range dst {
			dst[n] = op.fn(xs[n], v)
		}
	}
}

// scalarRow is dst = v ∘ ys.
func scalarRow(op rowOp, dst []float64, v float64, ys []float64) {
	covers(dst, ys)
	switch op.kind {
	case opAdd:
		for n := range dst {
			dst[n] = v + ys[n]
		}
	case opSub:
		for n := range dst {
			dst[n] = v - ys[n]
		}
	case opMul:
		for n := range dst {
			dst[n] = v * ys[n]
		}
	case opDiv:
		for n := range dst {
			dst[n] = v / ys[n]
		}
	default:
		for n := range dst {
			dst[n] = op.fn(v, ys[n])
		}
	}
}

// The three statement shapes axpyRow fuses.
const (
	axPlusY  = iota // v*xs + ys
	axMinusY        // v*xs - ys
	yPlusAx         // ys + v*xs
)

// axpyRow is a scaled row plus or minus another in one pass. The float64
// conversion pins the product to a rounded double, forbidding FMA
// contraction, so the result is the two-step evaluation's on every
// architecture.
func axpyRow(form int, dst []float64, v float64, xs, ys []float64) {
	covers(dst, xs)
	covers(dst, ys)
	switch form {
	case axPlusY:
		for n := range dst {
			dst[n] = float64(v*xs[n]) + ys[n]
		}
	case axMinusY:
		for n := range dst {
			dst[n] = float64(v*xs[n]) - ys[n]
		}
	default:
		for n := range dst {
			dst[n] = ys[n] + float64(v*xs[n])
		}
	}
}

// mapRow is dst = fn(xs) per element: the unary intrinsics and not.
func mapRow(fn func(float64) float64, dst, xs []float64) {
	covers(dst, xs)
	for n := range dst {
		dst[n] = fn(xs[n])
	}
}

// negRow is dst = -xs.
func negRow(dst, xs []float64) {
	covers(dst, xs)
	for n := range dst {
		dst[n] = -xs[n]
	}
}

// fillRow broadcasts v over dst.
func fillRow(dst []float64, v float64) {
	for n := range dst {
		dst[n] = v
	}
}
