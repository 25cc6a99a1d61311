package rt

import (
	"fmt"

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
// by literal-bound sweeps), so kernels are cached per statement site
// (site.go) and amortize to zero compile cost. A kernel is position
// independent — it addresses fields by array ID and class-invariant flat
// offsets in coordinates relative to the block origin, and reads data,
// scalars and the origin from the executing processor's kctx — so every
// processor of a shape class runs the same one (class.go). Virtual-time
// charges are computed from size*Flops exactly as before, so simulated
// results are unaffected; only host wall-clock changes. It is the only
// engine: what it cannot lower is a program error (addrOf), and the tests
// hold what it computes to internal/ref.

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

	data    [][]float64 // the processor's field backing slices, by ArraySym.ID
	scalars []float64   // its scalar store, by ScalarSym.ID
	org     [2]int      // global coordinates of its block origin
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
	local grid.Region // the processor's part of the region, clipped to the LHS's block, relative to the block origin
	size  int         // local.Size(); 0 when the processor has no part
	k     *kernel     // nil exactly when size is 0
}

// noPlan is every statement's plan where the processor has no part of the
// region.
var noPlan stmtPlan

// planFor returns the statement's plan at its currently resolved region,
// compiling on the class's first use. The part of the region outside the
// block's share of the LHS is dropped: where the LHS's region ends, and on
// a processor that holds none of it, the whole statement.
func (p *proc) planFor(s *ir.AssignArray) *stmtPlan {
	w, cl := p.w, p.cls
	return resolve(p, &p.stmts[s.ID], &w.stmtCC[s.ID], &cl.frame, cl.id, &s.Region, cacheKernel, func(local grid.Region) *stmtPlan {
		pl := &stmtPlan{local: local.Intersect(cl.locals[s.LHS.ID])}
		if !pl.local.Empty() {
			pl.size = pl.local.Size()
			pl.k = newKcompiler(cl, pl.local, s.Pos).assign(s)
		}
		return pl
	})
}

// reduceKernel is the reduction-partial counterpart, over local, the
// processor's part of the region of s, the statement the reduction is in;
// nil where that is empty.
func (p *proc) reduceKernel(e *ir.Reduce, s *ir.AssignScalar, local grid.Region) *reduceKernel {
	if local.Empty() {
		return nil
	}
	cl := p.cls
	return resolve(p, &p.reduces[e.ID], &p.w.reduceCC[e.ID], &cl.frame, cl.id, &s.Region, cacheReduce, func(local grid.Region) *reduceKernel {
		kc := newKcompiler(cl, local, s.Pos)
		row := kc.node(e.X)
		return &reduceKernel{op: e.Op, local: local, inner: kc.inner, L: kc.L, slots: kc.slots, row: row}
	})
}

// assign lowers one assignment over the compiler's local region.
func (kc *kcompiler) assign(s *ir.AssignArray) *kernel {
	k := &kernel{
		lhs:   kc.addrOf(s.LHS.ID, grid.Offset{}),
		local: kc.local,
		inner: kc.inner,
		L:     kc.L,
		rows:  kc.local.Size() / kc.L,
		mode:  storeModeFor(s, kc.inner),
		row:   kc.root(s.RHS),
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

// run computes the reduction's local partial, folding elements in
// row-major order, as internal/ref does, so floating-point results are
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
// one shape class's block.
type kcompiler struct {
	cl    *shapeClass
	local grid.Region // relative to the block origin
	inner int
	L     int
	slots int
	fills int     // rows broadcast from a scalar (fill): statement roots only
	pos   zpl.Pos // the statement's, for the errors addrOf raises
}

func newKcompiler(cl *shapeClass, local grid.Region, pos zpl.Pos) *kcompiler {
	inner := local.Rank - 1
	return &kcompiler{cl: cl, local: local, inner: inner, L: local.Spans[inner].Len(), pos: pos}
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
// region and returns where its rows start. The layout is read off the class
// representative's field, where it has the reference's rows: base makes the
// region's first relative point land on the flat index that point has
// there, as it does on every member. A reference whose shifted rows are not
// contiguous inside the halo is a program error, raised through the run's
// abort path (LANGUAGE.md, "Distribution model").
func (kc *kcompiler) addrOf(id int, off grid.Offset) addr {
	f := kc.cl.fields[id]
	rows := shiftDist(kc.local.Shift(off), kc.cl.org, 1)
	if !f.Allocated() || f.Stride(kc.inner) != 1 || !f.Contains(rows) {
		what := "reads outside the halo the processor holds"
		if !f.Allocated() {
			what = "reads an array the processor holds none of"
		}
		panic(fmt.Sprintf("%v: %s@%v %s", kc.pos, f.Name, off, what))
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

// fill compiles a scalar-invariant statement root (A := s) as a per-row
// broadcast of its value, evaluated once per row from the executing
// processor's scalars so scalars that change between executions are
// re-read. It is the only place a scalar becomes a row: as an operand it
// stays a value (binary).
func (kc *kcompiler) fill(e ir.Expr) vec {
	kc.fills++
	return func(c *kctx, dst []float64) []float64 {
		fillRow(dst, ir.Eval(e, c.scalars))
		return dst
	}
}

// root compiles the top of an assignment RHS: the one two-operation loop
// (axpy) where the statement has that shape, the tree compiler otherwise.
func (kc *kcompiler) root(e ir.Expr) vec {
	if v := kc.axpy(e); v != nil {
		return v
	}
	return kc.node(e)
}

// axpy recognizes s*X ± Y, X*s ± Y and Y + s*X (s scalar, X/Y array
// references) and fuses them into one loop (axpyRow, which keeps the
// product a rounded double so results stay bit-identical to the
// two-step evaluation).
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
	form := axPlusY
	if b.Op == zpl.MINUS {
		form = axMinusY
	}
	s, x := split(b.X)
	y, _ := b.Y.(*ir.ArrayRef)
	if x == nil && b.Op == zpl.PLUS { // Y + s*X is s*X + Y
		s, x = split(b.Y)
		y, _ = b.X.(*ir.ArrayRef)
	}
	if x == nil || y == nil {
		return nil
	}
	xv, yv := kc.viewOf(x), kc.viewOf(y)
	return func(c *kctx, dst []float64) []float64 {
		axpyRow(form, dst, ir.Eval(s, c.scalars), xv(c, nil), yv(c, nil))
		return dst
	}
}

// node is the generic tree compiler: every operator becomes one loop over
// rows (rowops.go), with subexpression results flowing through views or
// scratch slots. Each node performs exactly the expression's arithmetic
// per element (one operation per loop, no refactoring), so values are
// bit-identical to internal/ref's.
func (kc *kcompiler) node(e ir.Expr) vec {
	if scalarOnly(e) {
		return kc.fill(e)
	}
	switch e := e.(type) {
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
			fillRow(dst, float64(c.coord(d, dist)))
			return dst
		}

	case *ir.Unary:
		if e.Op == zpl.MINUS {
			return kc.unary(negRow, e.X)
		}
		op := e.Op
		return kc.unary(mapping(func(v float64) float64 { return ir.EvalUnary(op, v) }), e.X)

	case *ir.Binary:
		return kc.binary(rowOpOf(e.Op), e.X, e.Y)

	case *ir.Intrinsic:
		switch e.Fn {
		case ir.FnAbs:
			return kc.unary(absRow, e.Args[0])
		case ir.FnSqrt:
			return kc.unary(sqrtRow, e.Args[0])
		}
		d := &ir.Intrinsics[e.Fn]
		if d.Unary != nil {
			return kc.unary(mapping(d.Unary), e.Args[0])
		}
		return kc.binary(rowOp{kind: opFn, fn: d.Binary}, e.Args[0], e.Args[1])
	}
	panic(fmt.Sprintf("rt: %T below statement level (ir.Lower rejects it)", e))
}

// rowOpOf is a binary operator's rowOp.
func rowOpOf(k zpl.Kind) rowOp {
	switch k {
	case zpl.PLUS:
		return rowOp{kind: opAdd}
	case zpl.MINUS:
		return rowOp{kind: opSub}
	case zpl.STAR:
		return rowOp{kind: opMul}
	case zpl.SLASH:
		return rowOp{kind: opDiv}
	}
	return rowOp{kind: opFn, fn: func(x, y float64) float64 { return ir.EvalBinary(k, x, y) }}
}

// unary compiles a one-operand row loop — negRow, absRow, sqrtRow, or any
// other function as a mapping — over e's rows.
func (kc *kcompiler) unary(row func(dst, xs []float64), e ir.Expr) vec {
	x := kc.node(e)
	return func(c *kctx, dst []float64) []float64 {
		row(dst, x(c, dst))
		return dst
	}
}

// mapping is mapRow with its function bound: the intrinsics that have no
// row loop of their own, and not.
func mapping(fn func(float64) float64) func(dst, xs []float64) {
	return func(dst, xs []float64) { mapRow(fn, dst, xs) }
}

// binary compiles ex ∘ ey by what each operand is. A value — a scalarOnly
// subtree, the same at every point — is evaluated once per row and handed
// to a row∘scalar or scalar∘row loop; it never becomes a row. A view — an
// array reference — is read in place. Anything else is a row: the left one
// is computed into dst, which the loop then overwrites element by element,
// so the right one needs a scratch slot of its own — the only case that
// reserves one. Operand order is the program's throughout: s - A is not
// A - s, and a NaN's payload follows the left operand. (Both operands
// values is a scalarOnly node, which never gets here.)
func (kc *kcompiler) binary(op rowOp, ex, ey ir.Expr) vec {
	switch {
	case scalarOnly(ey):
		x := kc.node(ex)
		return func(c *kctx, dst []float64) []float64 {
			rowScalar(op, dst, x(c, dst), ir.Eval(ey, c.scalars))
			return dst
		}
	case scalarOnly(ex):
		y := kc.node(ey)
		return func(c *kctx, dst []float64) []float64 {
			scalarRow(op, dst, ir.Eval(ex, c.scalars), y(c, dst))
			return dst
		}
	}
	x, y := kc.node(ex), kc.node(ey)
	lo, hi := 0, 0 // y's window of the scratch space: none for a view
	if _, view := ey.(*ir.ArrayRef); !view {
		lo = kc.slot() * kc.L
		hi = lo + kc.L
	}
	return func(c *kctx, dst []float64) []float64 {
		xs := x(c, dst)
		binRow(op, dst, xs, y(c, c.scratch[lo:hi]))
		return dst
	}
}
