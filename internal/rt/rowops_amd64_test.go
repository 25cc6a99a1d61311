package rt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"commopt/internal/comm"
	"commopt/internal/machine"
	"commopt/internal/programs"
)

// goLoops runs fn with the wide loops switched off, as on a CPU without AVX2.
func goLoops(fn func()) {
	defer func(was bool) { wideRows = was }(wideRows)
	wideRows = false
	fn()
}

// wideCase is one arithmetic primitive in one operand form: through the
// primitive, as kernels call it, and straight into its wide loop.
type wideCase struct {
	name string
	ys   bool // takes a second row
	prim func(dst, xs, ys []float64, v float64)
	wide func(dst, xs, ys []float64, v float64)
}

func wideCases() []wideCase {
	var cases []wideCase
	for kind, name := range [...]string{opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div"} {
		kind := uint8(kind)
		op := rowOp{kind: kind}
		cases = append(cases,
			wideCase{name + "/row.row", true,
				func(d, x, y []float64, v float64) { binRow(op, d, x, y) },
				func(d, x, y []float64, v float64) { wideRow(wideBin+kind, &d[0], &x[0], &y[0], len(d), 0) }},
			wideCase{name + "/row.scalar", false,
				func(d, x, y []float64, v float64) { rowScalar(op, d, x, v) },
				func(d, x, y []float64, v float64) { wideRow(wideRowScalar+kind, &d[0], &x[0], nil, len(d), v) }},
			wideCase{name + "/scalar.row", false,
				func(d, x, y []float64, v float64) { scalarRow(op, d, v, x) },
				func(d, x, y []float64, v float64) { wideRow(wideScalarRow+kind, &d[0], &x[0], nil, len(d), v) }})
	}
	for form, name := range [...]string{axPlusY: "axpy/ax+y", axMinusY: "axpy/ax-y"} {
		cases = append(cases, wideCase{name, true,
			func(d, x, y []float64, v float64) { axpyRow(form, d, v, x, y) },
			func(d, x, y []float64, v float64) { wideRow(wideAxpy+uint8(form), &d[0], &x[0], &y[0], len(d), v) }})
	}
	for _, u := range []struct {
		name string
		code uint8
		row  func(dst, xs []float64)
	}{{"neg", wideNeg, negRow}, {"abs", wideAbs, absRow}, {"sqrt", wideSqrt, sqrtRow}} {
		cases = append(cases, wideCase{u.name, false,
			func(d, x, y []float64, v float64) { u.row(d, x) },
			func(d, x, y []float64, v float64) { wideRow(u.code, &d[0], &x[0], nil, len(d), 0) }})
	}
	return cases
}

// The values that tell two IEEE operations, or two operand orders, apart.
// The two tables share no NaN: whichever operand a NaN∘NaN result came from
// shows in its bits. Their lengths are coprime, so left and right values
// meet in every combination as rows are filled at moving phases.
var (
	leftValues = bitsToFloats(
		0x7ff8000000000001, 0xfff8000000000002, 0x7ff800000000a0a0, 0xfffc0000deadbeef, 0x7ff0000000000011, // NaNs, the last signaling
		0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, // ±0, ±Inf
		0x0000000000000001, 0x8000000000000001, 0x000fffffffffffff, 0x0010000000000000, // denormals, the least normal
		0x7fefffffffffffff, 0xffefffffffffffff, // ±MaxFloat64
		0x3ff0000000000000, 0xbff0000000000000, 0x4008000000000000, 0x3fb999999999999a) // 1, -1, 3, 0.1
	rightValues = bitsToFloats(
		0x7ff80000000000f1, 0xfff80000000000f2, 0x7ffb0b0b0b0b0b0b, 0xfff00000000000f3, // NaNs, the last signaling
		0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
		0x0000000000000003, 0x800fffffffffffff,
		0x7fefffffffffffff, 0xffefffffffffffff,
		0x3ff0000000000000, 0xc000000000000000, 0x3fd5555555555555, 0x7fe0000000000000, 0x0024000000000000)
)

func bitsToFloats(bits ...uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// rowAt returns n doubles starting off*8 bytes past a 64-byte boundary.
func rowAt(off, n int) []float64 {
	buf := make([]float64, n+16)
	for i := range buf {
		if uintptr(unsafe.Pointer(&buf[i]))%64 == 0 {
			return buf[i+off : i+off+n : i+off+n]
		}
	}
	panic("no 64-byte boundary in 16 doubles")
}

// Which row, if any, dst is.
const (
	dstDistinct = iota
	dstIsXs
	dstIsYs
)

// operands builds a primitive's rows: n elements each, dst starting at byte
// offset 8*off within its cache line and the sources at other offsets, dst
// one of them under an alias. rng nil fills from the value tables at a phase
// that moves with n and off; otherwise from rng, over many magnitudes. It
// holds itself to the primitives' aliasing contract: two rows are the same
// row or share no element.
func operands(alias, off, n int, rng *rand.Rand) (dst, xs, ys []float64, v float64) {
	xs, ys = rowAt((3*off+1)%8, n), rowAt((5*off+2)%8, n)
	phase := 7*off + n
	for i := range xs {
		if rng != nil {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			ys[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		} else {
			xs[i] = leftValues[(i+phase)%len(leftValues)]
			ys[i] = rightValues[(i+3*phase)%len(rightValues)]
		}
	}
	v = rightValues[phase%len(rightValues)]
	if rng != nil {
		v = rng.NormFloat64()
	}
	switch alias {
	case dstIsXs:
		dst = xs
	case dstIsYs:
		dst = ys
	default:
		dst = rowAt(off, n)
		for i := range dst {
			dst[i] = -12345 // never read
		}
	}
	if n > 0 {
		for _, src := range [][]float64{xs, ys} {
			d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
			if d != s && d < s+uintptr(8*n) && s < d+uintptr(8*n) {
				panic("operands: dst partially overlaps a source row")
			}
		}
	}
	return dst, xs, ys, v
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestWideRowsMatchGo holds every wide loop to the Go loop it stands in for,
// bit for bit: every tail residue, from rows the single-element loop serves
// alone to several eight-wide iterations, every row misalignment, dst
// distinct from or identical to a source, and operands whose results differ if an instruction's sources are swapped (x - y, x / y,
// and any NaN∘NaN pair, which returns its first source's payload). A failure
// on NaN pairs alone, with everything else passing, means the Go compiler
// orders a commutative operation's sources differently from the build the
// wide loops were written against: see wideRow.
func TestWideRowsMatchGo(t *testing.T) {
	if !wideRows {
		t.Skip("the CPU or the OS lacks AVX2: the Go loops are the only row loops here")
	}
	for _, c := range wideCases() {
		t.Run(c.name, func(t *testing.T) {
			aliases := []int{dstDistinct, dstIsXs}
			if c.ys {
				aliases = append(aliases, dstIsYs)
			}
			for n := 0; n <= 70; n++ {
				for off := 0; off < 8; off++ {
					for _, alias := range aliases {
						for _, seed := range []int64{0, int64(1 + n + 100*off)} {
							build := func() (dst, xs, ys []float64, v float64) {
								if seed == 0 {
									return operands(alias, off, n, nil)
								}
								return operands(alias, off, n, rand.New(rand.NewSource(seed)))
							}
							want, xs, ys, v := build()
							goLoops(func() { c.prim(want, xs, ys, v) })

							check := func(how string, got []float64) {
								if i, ok := sameBits(got, want); !ok {
									_, x0, y0, _ := build()
									t.Fatalf("n=%d off=%d alias=%d seed=%d, %s: element %d is %#016x, the Go loop's is %#016x (xs %#016x, ys %#016x, v %#016x)",
										n, off, alias, seed, how, i, math.Float64bits(got[i]), math.Float64bits(want[i]),
										math.Float64bits(x0[i]), math.Float64bits(y0[i]), math.Float64bits(v))
								}
							}
							got, xs, ys, v := build()
							c.prim(got, xs, ys, v)
							check("through the primitive", got)
							if n == 0 {
								continue
							}
							got, xs, ys, v = build()
							c.wide(got, xs, ys, v)
							check("straight into the wide loop", got)
						}
					}
				}
			}
		})
	}
}

// TestGoLoopsMatchWideRuns keeps the portable path — all there is on other
// architectures and on amd64 without AVX2 — tested where CI runs: the
// kernel shapes and the four suite programs, on 4 processors, with the wide
// loops and without. The kernel shapes run rows of 2-3 doubles, which only
// the assembly's single-element tail serves, of 10 and of 48. Arrays must
// match bit for bit and every processor's times exactly, and both runs must
// count the same kernel elements.
func TestGoLoopsMatchWideRuns(t *testing.T) {
	if !wideRows {
		t.Skip("the CPU or the OS lacks AVX2: every run here is a Go-loop run")
	}
	type cell struct {
		name, src string
		vars      map[string]float64
	}
	var cells []cell
	for _, sh := range kernelShapes {
		for _, n := range []float64{6, 20, 96} { // rows of 3, 10 and 48 on a 2x2 mesh (2 over Int)
			cells = append(cells, cell{fmt.Sprintf("%s/n=%v", sh.name, n), fmt.Sprintf(kernelBenchSrc, sh.stmt), map[string]float64{"n": n, "iters": 2}})
		}
	}
	for _, name := range []string{"tomcatv", "swm", "simple", "sp"} {
		b, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		long := map[string]float64{}
		for k, v := range b.TestConfig {
			long[k] = v
		}
		if _, rank3 := long["nz"]; rank3 {
			long["nz"] = 40 // sp's rows run along the undistributed dimension
		} else {
			long["n"] = 72
		}
		cells = append(cells, cell{name + "/short", b.Source, b.TestConfig}, cell{name + "/long", b.Source, long})
	}
	for _, c := range cells {
		cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: c.vars, Metrics: true}
		withWide := runSrc(t, c.src, comm.PL(), cfg)
		var goOnly *Result
		goLoops(func() { goOnly = runSrc(t, c.src, comm.PL(), cfg) })

		if !sameArrays(withWide, goOnly) || withWide.Output != goOnly.Output {
			t.Errorf("%s: arrays or output differ between the wide loops and the Go loops", c.name)
		}
		if withWide.ExecTime != goOnly.ExecTime || !reflect.DeepEqual(withWide.PerProc, goOnly.PerProc) {
			t.Errorf("%s: times differ: %v with the wide loops, %v without", c.name, withWide.ExecTime, goOnly.ExecTime)
		}
		w, g := withWide.Metrics.Counter("kernel_elems").N, goOnly.Metrics.Counter("kernel_elems").N
		if w != g || w == 0 {
			t.Errorf("%s: the wide run counts %d kernel elements, the Go-loop run %d; want the same, and some", c.name, w, g)
		}
	}
}
