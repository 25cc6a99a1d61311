package rt

import "math"

// This file holds the row primitives: the loops every compiled kernel
// bottoms out in, one IEEE operation per element in the interpreter's
// operand order. Each checks once, on entry, that its operand rows cover
// dst, so the compiler proves every index in range and the loops carry no
// per-element bounds check. CI holds them to that:
//
//	go build -gcflags=-d=ssa/check_bce ./internal/rt 2>&1 | grep rowops.go
//
// must print nothing.
//
// The arithmetic primitives hand a row that wide accepts — long enough, on
// a CPU with AVX2 — to wideRow (rowops_amd64.go), which runs the same
// operations four to an instruction. The Go loops here are the short-row
// path, the only path on every other GOARCH, and the reference the wide
// loops are tested against bit for bit.
//
// Aliasing: dst may be one of the operand rows exactly — each element is
// read before it is written, in the Go loops and within every vector of the
// wide ones — and is never a shifted window of one. A tree node writes only
// the dst its parent handed it or a scratch slot of its own, and its operands
// are those or views of fields; the one dst that lies in a field, the
// statement's LHS row, is written in place only when the RHS reads nothing
// of that array (storeDirect) and is staged otherwise (storeRow, storeFull).
//
// Order: the functions below are not in the order one would read them in.
// A Go loop here is about 24 bytes, one that straddles a 64-byte line of
// code runs ~60 % slower on 16-double rows, and functions start on 32-byte
// boundaries, so each one's size decides which half of a line the next
// starts in. With fillRow and negRow where they are, every + and * loop and
// a·x + y sit inside a line in the bench binary; CI prints where binRow,
// rowScalar and scalarRow landed (EXPERIMENTS.md, "Wide rows", has the
// table). The wide loops are aligned by the assembler and do not care.

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

// fillRow broadcasts v over dst.
func fillRow(dst []float64, v float64) {
	for n := range dst {
		dst[n] = v
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
