package rt

import "math"

// This file holds the row primitives: the loops every compiled kernel
// bottoms out in, one IEEE operation per element in the program's operand
// order. Each checks once, on entry, that its operand rows cover
// dst, so the compiler proves every index in range and the loops carry no
// per-element bounds check. CI holds them to that:
//
//	go build -gcflags=-d=ssa/check_bce ./internal/rt 2>&1 | grep rowops.go
//
// must print nothing.
//
// On a CPU with AVX2 the arithmetic primitives hand every non-empty row to
// wideRow (rowops_amd64.go), which runs the same operations four to an
// instruction. The Go loops here are the path on every other GOARCH and on
// CPUs without AVX2, and the reference the wide loops are tested against
// bit for bit.
//
// Aliasing: dst may be one of the operand rows exactly — each element is
// read before it is written, in the Go loops and within every vector of the
// wide ones — and is never a shifted window of one. A tree node writes only
// the dst its parent handed it or a scratch slot of its own, and its operands
// are those or views of fields; the one dst that lies in a field, the
// statement's LHS row, is written in place only when the RHS reads nothing
// of that array (storeDirect) and is staged otherwise (storeRow, storeFull).

// covers panics unless row xs is at least as long as dst. Only a bug in the
// kernel compiler can make it fire: every row of a kernel run has the run's L.
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

// What a primitive asks wideRow for: its operand form plus a rowOp kind or
// an axpy shape, or a unary row.
const (
	wideBin       uint8 = 8 * iota // + kind: xs ∘ ys
	wideRowScalar                  // + kind: xs ∘ v
	wideScalarRow                  // + kind: v ∘ xs
	wideAxpy                       // + shape
	wideNeg
	wideAbs
	wideSqrt
)

// binRow is dst = xs ∘ ys.
func binRow(op rowOp, dst, xs, ys []float64) {
	covers(dst, xs)
	covers(dst, ys)
	if wide(len(dst)) && op.kind != opFn {
		wideRow(wideBin+op.kind, &dst[0], &xs[0], &ys[0], len(dst), 0)
		return
	}
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
	if wide(len(dst)) && op.kind != opFn {
		wideRow(wideRowScalar+op.kind, &dst[0], &xs[0], nil, len(dst), v)
		return
	}
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

// negRow is dst = -xs.
func negRow(dst, xs []float64) {
	covers(dst, xs)
	if wide(len(dst)) {
		wideRow(wideNeg, &dst[0], &xs[0], nil, len(dst), 0)
		return
	}
	for n := range dst {
		dst[n] = -xs[n]
	}
}

// scalarRow is dst = v ∘ ys.
func scalarRow(op rowOp, dst []float64, v float64, ys []float64) {
	covers(dst, ys)
	if wide(len(dst)) && op.kind != opFn {
		wideRow(wideScalarRow+op.kind, &dst[0], &ys[0], nil, len(dst), v)
		return
	}
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

// The two loops axpyRow has. ys + v*xs runs as v*xs + ys: the sums are
// equal, and which payload a NaN + NaN returns — the one thing the order
// could change — is the compiler's choice either way (on amd64 it put the
// product first in both, except under -race).
const (
	axPlusY  = iota // v*xs + ys
	axMinusY        // v*xs - ys
)

// axpyRow is a scaled row plus or minus another in one pass. The float64
// conversion pins the product to a rounded double, forbidding FMA
// contraction, so the result is the two-step evaluation's on every
// architecture.
func axpyRow(form int, dst []float64, v float64, xs, ys []float64) {
	covers(dst, xs)
	covers(dst, ys)
	if wide(len(dst)) {
		wideRow(wideAxpy+uint8(form), &dst[0], &xs[0], &ys[0], len(dst), v)
		return
	}
	switch form {
	case axPlusY:
		for n := range dst {
			dst[n] = float64(v*xs[n]) + ys[n]
		}
	default:
		for n := range dst {
			dst[n] = float64(v*xs[n]) - ys[n]
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

// absRow is dst = |xs|.
func absRow(dst, xs []float64) {
	covers(dst, xs)
	if wide(len(dst)) {
		wideRow(wideAbs, &dst[0], &xs[0], nil, len(dst), 0)
		return
	}
	for n := range dst {
		dst[n] = math.Abs(xs[n])
	}
}

// fillRow broadcasts v over dst.
func fillRow(dst []float64, v float64) {
	for n := range dst {
		dst[n] = v
	}
}

// sqrtRow is dst = √xs.
func sqrtRow(dst, xs []float64) {
	covers(dst, xs)
	if wide(len(dst)) {
		wideRow(wideSqrt, &dst[0], &xs[0], nil, len(dst), 0)
		return
	}
	for n := range dst {
		dst[n] = math.Sqrt(xs[n])
	}
}
