package rt

import (
	"math"

	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// This file implements the kernel-compiled execution engine: each
// whole-array statement (and each local reduction partial) is lowered
// once per (statement, local region) into a flat loop nest that walks the
// fields' backing []float64 slices directly. Rows run along the last
// dimension of the statement's rank, which is contiguous in every field
// of that rank, so an @-shift becomes a constant flat-index delta and the
// inner loops carry no per-element At/Set bounds math or closure
// dispatch. Regions are loop-invariant for declared regions (and revisited
// in order by literal-bound sweeps), so kernels are cached per statement
// site (site.go) and amortize to zero compile cost. Virtual-time charges
// are computed from size*Flops exactly as before, so simulated results are
// unaffected; only host wall-clock changes. The closure interpreter
// (eval.go) remains both the fallback for shapes the compiler rejects and
// the differential-testing oracle (Config.ForceInterpreter).

// storeMode says how an assignment kernel honors whole-array semantics
// (the RHS is fully evaluated before the store).
type storeMode int

const (
	// storeDirect streams rows straight into the LHS: legal when the RHS
	// never reads the LHS.
	storeDirect storeMode = iota
	// storeRow stages each row in scratch before copying it to the LHS:
	// legal when the RHS reads the LHS only at offsets confined to the
	// row (zero in every outer dimension).
	storeRow
	// storeFull stages the entire result in the arena first: required
	// when the RHS reads the LHS across rows (nonzero outer offset).
	storeFull
)

// kctx is the per-row evaluation context threaded through vec closures.
// One lives in each proc and is reused by every kernel execution.
type kctx struct {
	i, j, k int       // global coordinates of the row's first element
	scratch []float64 // slot rows for intermediate results, arena-backed
	gen     int64     // fused-sweep row generation, keys memoized rows (fuse.go)
}

// coord returns the row-start coordinate along dimension d.
func (c *kctx) coord(d int) int {
	switch d {
	case 0:
		return c.i
	case 1:
		return c.j
	default:
		return c.k
	}
}

// vec evaluates one row of a compiled (sub)expression: it either fills
// dst and returns it, or returns a view straight into a field's backing
// array (array references are zero-copy).
type vec func(c *kctx, dst []float64) []float64

// kernel is one compiled whole-array assignment, fixed to a statement and
// the exact local region it iterates.
type kernel struct {
	lhs   *field.Field
	ldata []float64
	local grid.Region
	inner int // row dimension (rank-1)
	L     int // row length
	rows  int
	slots int // scratch rows needed by the expression tree
	mode  storeMode
	row   vec
	shape string // fill, copy, bin, axpy, gen — for benchmarks/inspection
}

// reduceKernel computes one reduction's local partial as a fused
// map-reduce over the processor's part of the statement region.
type reduceKernel struct {
	op    ir.ReduceOp
	local grid.Region
	inner int
	L     int
	slots int
	row   vec
}

// forRows visits the first element of every row of reg in row-major
// order, rows running along dimension inner.
func forRows(reg grid.Region, inner int, fn func(i, j, k int)) {
	s := reg.Spans
	switch inner {
	case 0:
		fn(s[0].Lo, s[1].Lo, s[2].Lo)
	case 1:
		for i := s[0].Lo; i <= s[0].Hi; i++ {
			fn(i, s[1].Lo, s[2].Lo)
		}
	default:
		for i := s[0].Lo; i <= s[0].Hi; i++ {
			for j := s[1].Lo; j <= s[1].Hi; j++ {
				fn(i, j, s[2].Lo)
			}
		}
	}
}

// stmtPlan is what one array statement means on one processor for one
// resolved statement region.
type stmtPlan struct {
	local grid.Region // the processor's part of the region, clipped to the LHS allocation
	size  int         // local.Size(); 0 when the processor has no part
	k     *kernel     // nil: the closure interpreter executes the statement
}

// planFor returns the statement's plan at its currently resolved region,
// compiling on first use. A nil kernel is cached like any other, so
// compile-time validation is paid once.
func (p *proc) planFor(s *ir.AssignArray) *stmtPlan {
	return resolve(p, &p.stmts[s.ID], s.Region, cacheKernel, func(reg grid.Region) *stmtPlan {
		pl := &stmtPlan{local: p.w.localRegion(reg, p.row, p.col)}
		if f := p.fields[s.LHS.ID]; f.Allocated() {
			pl.local = pl.local.Intersect(f.Local)
		}
		if !pl.local.Empty() {
			pl.size = pl.local.Size()
			if !p.w.interp {
				pl.k = p.compileKernel(s, pl.local)
			}
		}
		return pl
	})
}

// reduceKernel is the reduction-partial counterpart, over the processor's
// part of the enclosing statement's region (static: it is declared). nil
// means "use the interpreter", whose ForEach also handles empty regions.
func (p *proc) reduceKernel(e *ir.Reduce, static bool, local grid.Region) *reduceKernel {
	if p.w.interp || local.Empty() {
		return nil
	}
	return p.reduces[e.ID].get(static, local, p.met, cacheReduce, func(grid.Region) (k *reduceKernel) {
		kc := &kcompiler{p: p, local: local, inner: local.Rank - 1, L: local.Spans[local.Rank-1].Len(), ok: true}
		if row := kc.node(e.X); kc.ok {
			k = &reduceKernel{op: e.Op, local: local, inner: kc.inner, L: kc.L, slots: kc.slots, row: row}
		}
		return k
	})
}

// compileKernel lowers one assignment over one local region, or returns
// nil when the interpreter must handle it (unallocated LHS, reads outside
// the halo — which the interpreter turns into its precise panic — or a
// non-contiguous row).
func (p *proc) compileKernel(s *ir.AssignArray, local grid.Region) *kernel {
	f := p.fields[s.LHS.ID]
	inner := local.Rank - 1
	if !f.Allocated() || f.Stride(inner) != 1 || !f.Contains(local) {
		return nil
	}
	kc := &kcompiler{p: p, local: local, inner: inner, L: local.Spans[inner].Len(), ok: true}

	k := &kernel{
		lhs:   f,
		ldata: f.Data(),
		local: local,
		inner: inner,
		L:     kc.L,
		rows:  local.Size() / kc.L,
		mode:  storeModeFor(s, inner),
	}
	k.row, k.shape = kc.root(s.RHS)
	if !kc.ok {
		return nil
	}
	k.slots = kc.slots
	return k
}

// storeModeFor picks the cheapest store discipline that preserves
// whole-array semantics for this statement.
func storeModeFor(s *ir.AssignArray, inner int) storeMode {
	mode := storeDirect
	for _, u := range s.Uses {
		if u.Array != s.LHS {
			continue
		}
		crossRow := false
		for d := 0; d < grid.MaxRank; d++ {
			if d != inner && u.Off[d] != 0 {
				crossRow = true
			}
		}
		if crossRow {
			return storeFull
		}
		mode = storeRow
	}
	return mode
}

// run executes the kernel for processor p. The virtual-time charge is the
// caller's job (it depends only on size*Flops, not on how elements are
// evaluated).
func (k *kernel) run(p *proc) {
	c := &p.kctx
	m := p.arena.mark()
	c.scratch = p.arena.alloc(k.slots * k.L)
	switch k.mode {
	case storeDirect:
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			b := k.lhs.IndexOf(i, j, kk)
			dst := k.ldata[b : b+k.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
		})
	case storeRow:
		stage := p.arena.alloc(k.L)
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			out := k.row(c, stage)
			b := k.lhs.IndexOf(i, j, kk)
			copy(k.ldata[b:b+k.L], out)
		})
	case storeFull:
		tmp := p.arena.alloc(k.rows * k.L)
		n := 0
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			dst := tmp[n : n+k.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
			n += k.L
		})
		n = 0
		forRows(k.local, k.inner, func(i, j, kk int) {
			b := k.lhs.IndexOf(i, j, kk)
			copy(k.ldata[b:b+k.L], tmp[n:n+k.L])
			n += k.L
		})
	}
	p.arena.release(m)
}

// run computes the reduction's local partial, folding elements in the
// same row-major order as the interpreter so floating-point results are
// bit-identical.
func (k *reduceKernel) run(p *proc) float64 {
	c := &p.kctx
	m := p.arena.mark()
	c.scratch = p.arena.alloc(k.slots * k.L)
	root := p.arena.alloc(k.L)
	acc := k.op.Identity()
	forRows(k.local, k.inner, func(i, j, kk int) {
		c.i, c.j, c.k = i, j, kk
		out := k.row(c, root)
		switch k.op {
		case ir.ReduceSum:
			for _, v := range out {
				acc = acc + v
			}
		case ir.ReduceProd:
			for _, v := range out {
				acc = acc * v
			}
		case ir.ReduceMax:
			// Combine(a,b) keeps a only when a > b; replicate exactly
			// (including NaN ordering).
			for _, v := range out {
				if !(acc > v) {
					acc = v
				}
			}
		default: // ReduceMin
			for _, v := range out {
				if !(acc < v) {
					acc = v
				}
			}
		}
	})
	p.arena.release(m)
	return acc
}

// kcompiler lowers an expression tree to row evaluators over one region.
// A fused-run compile (compileFused) sets memo, enabling cross-statement
// elimination of repeated subexpressions; per-statement compiles leave it
// nil and every occurrence evaluates independently.
type kcompiler struct {
	p     *proc
	local grid.Region
	inner int
	L     int
	slots int
	ok    bool

	// Fused-run CSE state (cse.go): memo holds the wrappers for repeated
	// subtrees, benefit the pre-pass's set of keys worth wrapping. Both
	// nil outside compileFused.
	memo    map[string]*memoEntry
	benefit map[string]bool
}

// slot reserves a fresh scratch row and returns its index.
func (kc *kcompiler) slot() int {
	s := kc.slots
	kc.slots++
	return s
}

// scalarOnly reports whether e contains no array or index references, so
// its value is the same at every point of the region.
func scalarOnly(e ir.Expr) bool {
	switch e := e.(type) {
	case *ir.ArrayRef, *ir.IndexRef, *ir.Reduce:
		return false
	case *ir.Unary:
		return scalarOnly(e.X)
	case *ir.Binary:
		return scalarOnly(e.X) && scalarOnly(e.Y)
	case *ir.Intrinsic:
		for _, a := range e.Args {
			if !scalarOnly(a) {
				return false
			}
		}
	}
	return true
}

// viewOf validates an array reference against the region and returns its
// backing data plus a row-view closure. A reference whose shifted rows
// are not contiguous inside the halo rejects the kernel; the interpreter
// then reproduces the exact out-of-halo panic for genuinely broken
// programs.
func (kc *kcompiler) viewOf(e *ir.ArrayRef) vec {
	f := kc.p.fields[e.Array.ID]
	shifted := kc.local.Shift(e.Off)
	if !f.Allocated() || f.Stride(kc.inner) != 1 || !f.Contains(shifted) {
		kc.ok = false
		return nil
	}
	data := f.Data()
	o0, o1, o2 := e.Off[0], e.Off[1], e.Off[2]
	L := kc.L
	return func(c *kctx, dst []float64) []float64 {
		b := f.IndexOf(c.i+o0, c.j+o1, c.k+o2)
		return data[b : b+L]
	}
}

// root compiles the top of an assignment RHS, trying the specialized
// statement shapes before falling back to the generic tree compiler.
func (kc *kcompiler) root(e ir.Expr) (vec, string) {
	// Constant / scalar fill: the value is row-invariant; evaluate it
	// once per row through the interpreter's (cached) scalar closure so
	// scalars that change between executions are re-read.
	if scalarOnly(e) {
		fn := kc.p.compile(e)
		return func(c *kctx, dst []float64) []float64 {
			v := fn(0, 0, 0)
			for n := range dst {
				dst[n] = v
			}
			return dst
		}, "fill"
	}
	// Straight copy: B := A@d is one contiguous memmove per row.
	if ref, isRef := e.(*ir.ArrayRef); isRef {
		return kc.viewOf(ref), "copy"
	}
	if v := kc.axpy(e); v != nil {
		return v, "axpy"
	}
	if v := kc.binFast(e); v != nil {
		return v, "bin"
	}
	return kc.node(e), "gen"
}

// axpy recognizes s*X ± Y, X*s ± Y and Y + s*X (s scalar, X/Y array
// references) and fuses them into one loop. The float64 conversion pins
// the intermediate product to a rounded double, forbidding FMA
// contraction so results stay bit-identical to the interpreter's
// two-step evaluation on every architecture.
func (kc *kcompiler) axpy(e ir.Expr) vec {
	b, isBin := e.(*ir.Binary)
	if !isBin || (b.Op != zpl.PLUS && b.Op != zpl.MINUS) {
		return nil
	}
	split := func(e ir.Expr) (ir.Expr, *ir.ArrayRef) {
		m, isMul := e.(*ir.Binary)
		if !isMul || m.Op != zpl.STAR {
			return nil, nil
		}
		if x, isRef := m.Y.(*ir.ArrayRef); isRef && scalarOnly(m.X) {
			return m.X, x
		}
		if x, isRef := m.X.(*ir.ArrayRef); isRef && scalarOnly(m.Y) {
			return m.Y, x
		}
		return nil, nil
	}
	if s, x := split(b.X); x != nil {
		if y, isRef := b.Y.(*ir.ArrayRef); isRef {
			sfn := kc.p.compile(s)
			xv, yv := kc.viewOf(x), kc.viewOf(y)
			if !kc.ok {
				return nil
			}
			sub := b.Op == zpl.MINUS
			return func(c *kctx, dst []float64) []float64 {
				v := sfn(0, 0, 0)
				xs, ys := xv(c, nil), yv(c, nil)
				if sub {
					for n := range dst {
						dst[n] = float64(v*xs[n]) - ys[n]
					}
				} else {
					for n := range dst {
						dst[n] = float64(v*xs[n]) + ys[n]
					}
				}
				return dst
			}
		}
	}
	if b.Op == zpl.PLUS {
		if s, x := split(b.Y); x != nil {
			if y, isRef := b.X.(*ir.ArrayRef); isRef {
				sfn := kc.p.compile(s)
				xv, yv := kc.viewOf(x), kc.viewOf(y)
				if !kc.ok {
					return nil
				}
				return func(c *kctx, dst []float64) []float64 {
					v := sfn(0, 0, 0)
					xs, ys := xv(c, nil), yv(c, nil)
					for n := range dst {
						dst[n] = ys[n] + float64(v*xs[n])
					}
					return dst
				}
			}
		}
	}
	return nil
}

// binFast fuses a root +,-,*,/ whose operands are array references or
// scalar-invariant expressions into a single loop over views.
func (kc *kcompiler) binFast(e ir.Expr) vec {
	b, isBin := e.(*ir.Binary)
	if !isBin {
		return nil
	}
	switch b.Op {
	case zpl.PLUS, zpl.MINUS, zpl.STAR, zpl.SLASH:
	default:
		return nil
	}
	xr, xIsRef := b.X.(*ir.ArrayRef)
	yr, yIsRef := b.Y.(*ir.ArrayRef)
	op := b.Op
	switch {
	case xIsRef && yIsRef:
		xv, yv := kc.viewOf(xr), kc.viewOf(yr)
		if !kc.ok {
			return nil
		}
		return func(c *kctx, dst []float64) []float64 {
			xs, ys := xv(c, nil), yv(c, nil)
			binRow(op, dst, xs, ys)
			return dst
		}
	case xIsRef && scalarOnly(b.Y):
		xv := kc.viewOf(xr)
		yfn := kc.p.compile(b.Y)
		if !kc.ok {
			return nil
		}
		return func(c *kctx, dst []float64) []float64 {
			xs, v := xv(c, nil), yfn(0, 0, 0)
			switch op {
			case zpl.PLUS:
				for n := range dst {
					dst[n] = xs[n] + v
				}
			case zpl.MINUS:
				for n := range dst {
					dst[n] = xs[n] - v
				}
			case zpl.STAR:
				for n := range dst {
					dst[n] = xs[n] * v
				}
			default:
				for n := range dst {
					dst[n] = xs[n] / v
				}
			}
			return dst
		}
	case yIsRef && scalarOnly(b.X):
		yv := kc.viewOf(yr)
		xfn := kc.p.compile(b.X)
		if !kc.ok {
			return nil
		}
		return func(c *kctx, dst []float64) []float64 {
			v, ys := xfn(0, 0, 0), yv(c, nil)
			switch op {
			case zpl.PLUS:
				for n := range dst {
					dst[n] = v + ys[n]
				}
			case zpl.MINUS:
				for n := range dst {
					dst[n] = v - ys[n]
				}
			case zpl.STAR:
				for n := range dst {
					dst[n] = v * ys[n]
				}
			default:
				for n := range dst {
					dst[n] = v / ys[n]
				}
			}
			return dst
		}
	}
	return nil
}

// binRow applies one arithmetic operator elementwise. Aliasing between
// dst and an operand is safe: each element is read before it is written.
func binRow(op zpl.Kind, dst, xs, ys []float64) {
	switch op {
	case zpl.PLUS:
		for n := range dst {
			dst[n] = xs[n] + ys[n]
		}
	case zpl.MINUS:
		for n := range dst {
			dst[n] = xs[n] - ys[n]
		}
	case zpl.STAR:
		for n := range dst {
			dst[n] = xs[n] * ys[n]
		}
	case zpl.SLASH:
		for n := range dst {
			dst[n] = xs[n] / ys[n]
		}
	default:
		for n := range dst {
			dst[n] = evalBinary(op, xs[n], ys[n])
		}
	}
}

// node is the generic tree compiler: every operator becomes one loop over
// rows, with subexpression results flowing through views or scratch
// slots. Each node performs exactly the interpreter's arithmetic per
// element (one operation per loop, no refactoring), so values are
// bit-identical.
func (kc *kcompiler) node(e ir.Expr) vec {
	switch e := e.(type) {
	case *ir.Const, *ir.ScalarRef:
		fn := kc.p.compile(e)
		return func(c *kctx, dst []float64) []float64 {
			v := fn(0, 0, 0)
			for n := range dst {
				dst[n] = v
			}
			return dst
		}

	case *ir.ArrayRef:
		return kc.viewOf(e)

	case *ir.IndexRef:
		d := e.Dim - 1
		if d == kc.inner {
			return func(c *kctx, dst []float64) []float64 {
				lo := c.coord(d)
				for n := range dst {
					dst[n] = float64(lo + n)
				}
				return dst
			}
		}
		return func(c *kctx, dst []float64) []float64 {
			v := float64(c.coord(d))
			for n := range dst {
				dst[n] = v
			}
			return dst
		}

	case *ir.Unary:
		// Scalar-invariant subtrees collapse to one closure call per row.
		if scalarOnly(e) {
			return kc.node2fill(e)
		}
		return kc.memoize(e, func() vec {
			x := kc.node(e.X)
			if e.Op == zpl.MINUS {
				return func(c *kctx, dst []float64) []float64 {
					xs := x(c, dst)
					for n := range dst {
						dst[n] = -xs[n]
					}
					return dst
				}
			}
			return func(c *kctx, dst []float64) []float64 {
				xs := x(c, dst)
				for n := range dst {
					dst[n] = boolVal(xs[n] == 0)
				}
				return dst
			}
		})

	case *ir.Binary:
		if scalarOnly(e) {
			return kc.node2fill(e)
		}
		return kc.memoize(e, func() vec {
			x := kc.node(e.X)
			y := kc.node(e.Y)
			ys := kc.slot()
			op := e.Op
			L := kc.L
			return func(c *kctx, dst []float64) []float64 {
				xs := x(c, dst)
				yr := y(c, c.scratch[ys*L:ys*L+L])
				binRow(op, dst, xs, yr)
				return dst
			}
		})

	case *ir.Intrinsic:
		if scalarOnly(e) {
			return kc.node2fill(e)
		}
		return kc.memoize(e, func() vec { return kc.intrinsic(e) })

	case *ir.Reduce:
		// Reductions never appear below statement level (see eval.go).
		kc.ok = false
		return nil
	}
	kc.ok = false
	return nil
}

// node2fill compiles a scalar-invariant subtree as a per-row broadcast of
// the interpreter closure's value.
func (kc *kcompiler) node2fill(e ir.Expr) vec {
	fn := kc.p.compile(e)
	return func(c *kctx, dst []float64) []float64 {
		v := fn(0, 0, 0)
		for n := range dst {
			dst[n] = v
		}
		return dst
	}
}

func (kc *kcompiler) intrinsic(e *ir.Intrinsic) vec {
	args := make([]vec, len(e.Args))
	for n, a := range e.Args {
		args[n] = kc.node(a)
	}
	switch e.Fn {
	case ir.FnAbs:
		x := args[0]
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)
			for n := range dst {
				dst[n] = math.Abs(xs[n])
			}
			return dst
		}
	case ir.FnSqrt:
		x := args[0]
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)
			for n := range dst {
				dst[n] = math.Sqrt(xs[n])
			}
			return dst
		}
	case ir.FnMax, ir.FnMin:
		x, y := args[0], args[1]
		ys := kc.slot()
		isMax := e.Fn == ir.FnMax
		L := kc.L
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)
			yr := y(c, c.scratch[ys*L:ys*L+L])
			if isMax {
				for n := range dst {
					dst[n] = math.Max(xs[n], yr[n])
				}
			} else {
				for n := range dst {
					dst[n] = math.Min(xs[n], yr[n])
				}
			}
			return dst
		}
	default:
		fn := e.Fn
		slots := make([]int, len(args))
		for n := 1; n < len(args); n++ {
			slots[n] = kc.slot()
		}
		L := kc.L
		vals := make([]float64, len(args))
		rows := make([][]float64, len(args))
		return func(c *kctx, dst []float64) []float64 {
			rows[0] = args[0](c, dst)
			for n := 1; n < len(args); n++ {
				s := slots[n]
				rows[n] = args[n](c, c.scratch[s*L:s*L+L])
			}
			for i := range dst {
				for n := range rows {
					vals[n] = rows[n][i]
				}
				dst[i] = evalIntrinsic(fn, vals)
			}
			return dst
		}
	}
}
