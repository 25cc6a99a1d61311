package rt

import (
	"math"

	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// This file implements the kernel-compiled execution engine: each
// whole-array statement (and each local reduction partial) is lowered
// once per (statement, shape class, local region) into a flat loop nest
// that walks the fields' backing []float64 slices directly. Rows run along
// the last dimension of the statement's rank, which is contiguous in every
// field of that rank, so an @-shift becomes a constant flat-index delta and
// the inner loops carry no per-element At/Set bounds math or closure
// dispatch. Regions are loop-invariant for declared regions (and revisited
// in order by literal-bound sweeps), so kernels are cached per statement
// site (site.go) and amortize to zero compile cost. A kernel is position
// independent — it addresses fields by array ID and class-invariant flat
// offsets in coordinates relative to the block origin, and reads data,
// scalars and the origin from the executing processor's kctx — so every
// processor of a shape class runs the same one (class.go). Virtual-time
// charges are computed from size*Flops exactly as before, so simulated
// results are unaffected; only host wall-clock changes. The closure
// interpreter (eval.go) remains both the fallback for shapes the compiler
// rejects and the differential-testing oracle (Config.ForceInterpreter).

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
// One lives in each proc and is reused by every kernel execution; it is
// everything a compiled row knows of the processor running it.
type kctx struct {
	i, j, k int       // coordinates of the row's first element, relative to org
	scratch []float64 // slot rows for intermediate results, arena-backed
	memo    uint64    // fused sweep: the memoized rows valid for this row, by bit (cse.go)
	bases   []int     // fused sweep: every member's store cursor (fuse.go)

	data [][]float64 // the processor's field backing slices, by ArraySym.ID
	env  scalarEnv   // its scalar store
	org  [2]int      // global coordinates of its block origin
}

// coord returns the row-start's global coordinate along dimension d; dist
// says the region distributes d, so the coordinate is relative to org.
func (c *kctx) coord(d int, dist bool) int {
	v := [3]int{c.i, c.j, c.k}[d]
	if dist {
		v += c.org[d]
	}
	return v
}

// vec evaluates one row of a compiled (sub)expression: it either fills
// dst and returns it, or returns a view straight into a field's backing
// array (array references are zero-copy).
type vec func(c *kctx, dst []float64) []float64

// addr locates an array's elements in coordinates relative to the block
// origin: point (i, j, k) of array id sits at flat index base + i*s0 + j*s1
// + k of its backing slice on every processor of the shape class.
type addr struct {
	id, base, s0, s1 int
}

func (a *addr) at(i, j, k int) int { return a.base + i*a.s0 + j*a.s1 + k }

// kernel is one compiled whole-array assignment, fixed to a statement and
// the exact local region it iterates.
type kernel struct {
	lhs   addr
	local grid.Region // relative to the block origin
	inner int         // row dimension (rank-1)
	L     int         // row length
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
	local grid.Region // relative to the block origin
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

// stmtPlan is what one array statement means on the processors of one
// shape class for one resolved statement region.
type stmtPlan struct {
	local grid.Region // the processor's part of the region, clipped to the LHS allocation, relative to the block origin
	size  int         // local.Size(); 0 when the processor has no part
	k     *kernel     // nil: the closure interpreter executes the statement
}

// noPlan is every statement's plan where the processor has no part of the
// region.
var noPlan stmtPlan

// planFor returns the statement's plan at its currently resolved region,
// compiling on the class's first use. A nil kernel is cached like any
// other, so compile-time validation is paid once.
func (p *proc) planFor(s *ir.AssignArray) *stmtPlan {
	w, cl := p.w, p.cls
	return resolve(p, &p.stmts[s.ID], &w.stmtCC[s.ID], &cl.frame, cl.id, s.Region, cacheKernel, func(local grid.Region) *stmtPlan {
		pl := &stmtPlan{local: cl.owned(s.LHS.ID, local)}
		if !pl.local.Empty() {
			pl.size = pl.local.Size()
			if !w.interp {
				pl.k = newKcompiler(cl, pl.local).assign(s)
			}
		}
		return pl
	})
}

// owned clips a block's part of a statement region to what the block holds
// of the statement's LHS array.
func (cl *shapeClass) owned(lhs int, local grid.Region) grid.Region {
	if cl.fields[lhs].Allocated() {
		local = local.Intersect(cl.locals[lhs])
	}
	return local
}

// reduceKernel is the reduction-partial counterpart, over the processor's
// part of the enclosing statement's region (static: it is declared). nil
// means "use the interpreter", whose ForEach also handles empty regions.
func (p *proc) reduceKernel(e *ir.Reduce, static bool, local grid.Region) *reduceKernel {
	if p.w.interp || local.Empty() {
		return nil
	}
	cc, cl := &p.w.reduceCC[e.ID], p.cls
	return p.reduces[e.ID].get(static, local, p.met, cacheReduce, func(grid.Region) *reduceKernel {
		return cc.get(cl.id, local, p.met, cacheReduce, func(grid.Region) (k *reduceKernel) {
			kc := newKcompiler(cl, local)
			if row := kc.node(e.X); kc.ok {
				k = &reduceKernel{op: e.Op, local: local, inner: kc.inner, L: kc.L, slots: kc.slots, row: row}
			}
			return k
		})
	})
}

// assign lowers one assignment over the compiler's local region, or returns
// nil when the interpreter must handle it (unallocated LHS, reads outside
// the halo — which the interpreter turns into its precise panic — or a
// non-contiguous row).
func (kc *kcompiler) assign(s *ir.AssignArray) *kernel {
	k := &kernel{
		lhs:   kc.addrOf(s.LHS.ID, grid.Offset{}),
		local: kc.local,
		inner: kc.inner,
		L:     kc.L,
		rows:  kc.local.Size() / kc.L,
		mode:  storeModeFor(s, kc.inner),
	}
	if !kc.ok {
		return nil
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
	ldata := c.data[k.lhs.id]
	m := p.arena.mark()
	c.scratch = p.arena.alloc(k.slots * k.L)
	switch k.mode {
	case storeDirect:
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			b := k.lhs.at(i, j, kk)
			dst := ldata[b : b+k.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
		})
	case storeRow:
		stage := p.arena.alloc(k.L)
		forRows(k.local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			out := k.row(c, stage)
			b := k.lhs.at(i, j, kk)
			copy(ldata[b:b+k.L], out)
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
			b := k.lhs.at(i, j, kk)
			copy(ldata[b:b+k.L], tmp[n:n+k.L])
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

// kcompiler lowers an expression tree to row evaluators over one region of
// one shape class's block. A fused-run compile (compileFused) sets memo,
// enabling cross-statement elimination of repeated subexpressions;
// per-statement compiles leave it nil and every occurrence evaluates
// independently.
type kcompiler struct {
	cl    *shapeClass
	local grid.Region // relative to the block origin
	inner int
	L     int
	slots int
	ok    bool

	// Fused-run CSE state (cse.go): memo holds the wrappers for repeated
	// subtrees, benefit the pre-pass's set of keys worth wrapping, memos the
	// wrappers made so far (each owns a bit of kctx.memo). Both maps are nil
	// outside compileFused.
	memo    map[string]*memoEntry
	benefit map[string]bool
	memos   int
}

func newKcompiler(cl *shapeClass, local grid.Region) *kcompiler {
	inner := local.Rank - 1
	return &kcompiler{cl: cl, local: local, inner: inner, L: local.Spans[inner].Len(), ok: true}
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

// addrOf validates a reference to the array at offset off against the
// region and returns where its rows start. A reference whose shifted rows
// are not contiguous inside the halo rejects the kernel; the interpreter
// then reproduces the exact out-of-halo panic for genuinely broken
// programs. The layout is read off the class representative's field, where
// it has the reference's rows: base makes the region's first relative point
// land on the flat index that point has there, as it does on every member.
func (kc *kcompiler) addrOf(id int, off grid.Offset) addr {
	f := kc.cl.fields[id]
	rows := shiftDist(kc.local.Shift(off), kc.cl.org, 1)
	if !f.Allocated() || f.Stride(kc.inner) != 1 || !f.Contains(rows) {
		kc.ok = false
		return addr{}
	}
	a := addr{id: id, s0: f.Stride(0), s1: f.Stride(1)}
	at, rel := rows.Spans, kc.local.Spans
	a.base = f.IndexOf(at[0].Lo, at[1].Lo, at[2].Lo) - a.at(rel[0].Lo, rel[1].Lo, rel[2].Lo)
	return a
}

// viewOf compiles an array reference to a zero-copy row view.
func (kc *kcompiler) viewOf(e *ir.ArrayRef) vec {
	a := kc.addrOf(e.Array.ID, e.Off)
	L := kc.L
	return func(c *kctx, dst []float64) []float64 {
		b := a.at(c.i, c.j, c.k)
		return c.data[a.id][b : b+L]
	}
}

// fill compiles a scalar-invariant subtree as a per-row broadcast of its
// value, evaluated once per row from the executing processor's scalars so
// scalars that change between executions are re-read.
func fill(e ir.Expr) vec {
	return func(c *kctx, dst []float64) []float64 {
		v := c.env.eval(e)
		for n := range dst {
			dst[n] = v
		}
		return dst
	}
}

// root compiles the top of an assignment RHS, trying the specialized
// statement shapes before falling back to the generic tree compiler.
func (kc *kcompiler) root(e ir.Expr) (vec, string) {
	// Constant / scalar fill: the value is row-invariant.
	if scalarOnly(e) {
		return fill(e), "fill"
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
			xv, yv := kc.viewOf(x), kc.viewOf(y)
			if !kc.ok {
				return nil
			}
			sub := b.Op == zpl.MINUS
			return func(c *kctx, dst []float64) []float64 {
				v := c.env.eval(s)
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
				xv, yv := kc.viewOf(x), kc.viewOf(y)
				if !kc.ok {
					return nil
				}
				return func(c *kctx, dst []float64) []float64 {
					v := c.env.eval(s)
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
		xv, y := kc.viewOf(xr), b.Y
		if !kc.ok {
			return nil
		}
		return func(c *kctx, dst []float64) []float64 {
			xs, v := xv(c, nil), c.env.eval(y)
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
		yv, x := kc.viewOf(yr), b.X
		if !kc.ok {
			return nil
		}
		return func(c *kctx, dst []float64) []float64 {
			v, ys := c.env.eval(x), yv(c, nil)
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
		return fill(e)

	case *ir.ArrayRef:
		return kc.viewOf(e)

	case *ir.IndexRef:
		// The global coordinate is the relative one plus the executing
		// processor's origin, in the dimensions the region distributes.
		d := e.Dim - 1
		dist := d < 2 && d < kc.local.Rank
		if d == kc.inner {
			return func(c *kctx, dst []float64) []float64 {
				lo := c.coord(d, dist)
				for n := range dst {
					dst[n] = float64(lo + n)
				}
				return dst
			}
		}
		return func(c *kctx, dst []float64) []float64 {
			v := float64(c.coord(d, dist))
			for n := range dst {
				dst[n] = v
			}
			return dst
		}

	case *ir.Unary:
		// Scalar-invariant subtrees collapse to one closure call per row.
		if scalarOnly(e) {
			return fill(e)
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
			return fill(e)
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
			return fill(e)
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
		// Every intrinsic takes one or two arguments (ir.Lower checks the
		// arity), so the per-element argument list lives on the stack: a
		// compiled row is shared by processors running concurrently and owns
		// no buffers.
		fn, x, y := e.Fn, args[0], args[len(args)-1]
		n, ys, L := len(args), 0, kc.L
		if n == 2 {
			ys = kc.slot()
		}
		return func(c *kctx, dst []float64) []float64 {
			xs := x(c, dst)
			yr := xs
			if n == 2 {
				yr = y(c, c.scratch[ys*L:ys*L+L])
			}
			var vals [2]float64
			for i := range dst {
				vals[0], vals[1] = xs[i], yr[i]
				dst[i] = evalIntrinsic(fn, vals[:n])
			}
			return dst
		}
	}
}
