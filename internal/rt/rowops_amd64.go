package rt

// This file is the one place the wide row loops (rowops_amd64.s) are chosen:
// a row primitive of rowops.go hands its row to wideRow when wide says so,
// and runs its own Go loop otherwise.

// wideRows says the CPU and the OS offer AVX2. Read once; a test clears it
// to run the Go loops on a machine that would not.
var wideRows = hasAVX2()

// wide reports whether a row of n elements runs in the wide loops: every
// non-empty row on a CPU with AVX2. A row of fewer than eight elements runs
// only the loops' tails. There is no length threshold: every loop that runs
// a row starts a 64-byte line wherever the linker puts the code around it.
func wide(n int) bool { return wideRows && n > 0 }

// wideRow runs loop code over rows of n elements, n no more than the caller
// has checked each row holds; opFn has no loop and is the caller's to keep
// (ys is nil where the form has one row, v unused where it has no scalar).
// Every loop applies the IEEE operation of the Go loop it stands in
// for, to the same operands in the same order — including the order the Go
// compiler chose where the language leaves it open: of two NaN operands x86
// returns the first source, and in v + ys[n] and v * ys[n] the compiler makes
// the freshly loaded value the first source, not the left operand. So
// scalar∘row + and * are the row∘scalar loops. TestWideRowsMatchGo holds
// every loop to its Go loop bit for bit, NaN payloads included, with and
// without -race, and is what fails if a compiler ever chooses otherwise.
func wideRow(code uint8, dst, xs, ys *float64, n int, v float64) {
	switch code {
	case wideBin + opAdd:
		addRR(dst, xs, ys, n)
	case wideBin + opSub:
		subRR(dst, xs, ys, n)
	case wideBin + opMul:
		mulRR(dst, xs, ys, n)
	case wideBin + opDiv:
		divRR(dst, xs, ys, n)
	case wideRowScalar + opAdd, wideScalarRow + opAdd:
		addRS(dst, xs, v, n)
	case wideRowScalar + opSub:
		subRS(dst, xs, v, n)
	case wideRowScalar + opMul, wideScalarRow + opMul:
		mulRS(dst, xs, v, n)
	case wideRowScalar + opDiv:
		divRS(dst, xs, v, n)
	case wideScalarRow + opSub:
		subSR(dst, xs, v, n)
	case wideScalarRow + opDiv:
		divSR(dst, xs, v, n)
	case wideAxpy + axPlusY:
		axpyAdd(dst, xs, ys, n, v)
	case wideAxpy + axMinusY:
		axpySub(dst, xs, ys, n, v)
	case wideNeg:
		negR(dst, xs, n)
	case wideAbs:
		absR(dst, xs, n)
	case wideSqrt:
		sqrtR(dst, xs, n)
	default:
		panic("rt: no wide row loop for this operation")
	}
}

// The loops of rowops_amd64.s. Each reads n elements of its rows and writes
// n of dst; dst may be one of the rows, exactly.

//go:noescape
func addRR(dst, xs, ys *float64, n int)

//go:noescape
func subRR(dst, xs, ys *float64, n int)

//go:noescape
func mulRR(dst, xs, ys *float64, n int)

//go:noescape
func divRR(dst, xs, ys *float64, n int)

//go:noescape
func addRS(dst, xs *float64, v float64, n int)

//go:noescape
func subRS(dst, xs *float64, v float64, n int)

//go:noescape
func mulRS(dst, xs *float64, v float64, n int)

//go:noescape
func divRS(dst, xs *float64, v float64, n int)

// subSR is dst = v - xs.
//
//go:noescape
func subSR(dst, xs *float64, v float64, n int)

// divSR is dst = v / xs.
//
//go:noescape
func divSR(dst, xs *float64, v float64, n int)

// axpyAdd is dst = xs*v + ys, the product rounded before the sum.
//
//go:noescape
func axpyAdd(dst, xs, ys *float64, n int, v float64)

// axpySub is dst = xs*v - ys.
//
//go:noescape
func axpySub(dst, xs, ys *float64, n int, v float64)

//go:noescape
func negR(dst, xs *float64, n int)

//go:noescape
func absR(dst, xs *float64, n int)

//go:noescape
func sqrtR(dst, xs *float64, n int)

func hasAVX2() bool
