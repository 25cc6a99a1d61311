package rt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"commopt/internal/field"
	"commopt/internal/grid"
	"commopt/internal/ir"
	"commopt/internal/zpl"
)

// This file implements the kernel-compiled execution engine: each
// whole-array statement (and each local reduction partial) is lowered at
// setup, once per shape class, into a flat loop nest over the fields'
// backing []float64 slices: the kernel table. A kernel does not depend on
// the region it iterates; each run takes the processor's part of the region
// and derives its row length, row count and scratch windows from it. Rows
// run along the last dimension of the statement's rank, contiguous in every
// field of that rank, so an @-shift is a constant flat-index delta and the
// inner loops carry no per-element bounds math or closure dispatch. Each
// subtree is computed at the loop level where its value varies
// (kcompiler.level): once per run, once per row, or per element. A kernel
// addresses fields by array ID and class-invariant flat offsets relative to
// the block origin, and reads data, scalars and the origin from the
// executing processor's kctx, so every processor of a shape class runs the
// same one (class.go). Virtual time is charged from size*Flops, so only
// host time depends on the kernels. It is the only engine: a read a run's
// region leaves the halo with is a program error (tree.begin), and the
// tests hold what it computes to internal/ref.

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
	L       int       // the run's row length
	scratch []float64 // slot rows for intermediate results and run rows, arena-backed
	vals    []float64 // the run's values (kcompiler.value), arena-backed

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

// tree is one compiled expression of one statement for one shape class:
// the row evaluator, what a run reserves of the arena (in rows of the
// run's length), the prologue that computes the run's values and run rows
// before its first row, and its array uses in compile order.
type tree struct {
	inner int // row dimension (rank-1)
	slots int // scratch rows: per-row operands and run rows
	vals  int // values computed once per run
	pre   []func(c *kctx)
	row   vec
	ok    grid.Region // the rows every use reads inside the halo over
	uses  []ir.ArrayUse
	pos   zpl.Pos // the statement's
}

// kernel is one compiled whole-array assignment.
type kernel struct {
	tree
	lhs  addr
	mode storeMode
}

// reduceKernel computes one reduction's local partial as a fused
// map-reduce over the processor's part of the statement region.
type reduceKernel struct {
	tree
	op ir.ReduceOp
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

// compileKernels fills the kernel table: every array statement and every
// reduction of the plan, once per shape class, on the goroutine setting the
// world up. Nothing a kernel holds depends on a region, so the table is
// complete before any processor runs, and compiling raises nothing: what a
// region's reads leave is checked where a run meets it (tree.begin).
func (w *world) compileKernels() {
	w.kernels = make([][]*kernel, w.prog.NumArrayStmts)
	w.partials = make([][]*reduceKernel, w.prog.NumReduces)
	for _, bp := range w.plan.Blocks {
		for _, st := range bp.Stmts {
			switch s := st.(type) {
			case *ir.AssignArray:
				w.kernels[s.ID] = make([]*kernel, len(w.classes))
				for _, cl := range w.classes {
					w.kernels[s.ID][cl.id] = newKcompiler(cl, s.Region.Rank(), s.Pos).assign(s)
					w.compiles++
				}
			case *ir.AssignScalar:
				ir.EachReduce(s.RHS, func(e *ir.Reduce) {
					if w.partials[e.ID] != nil {
						return // an inlined clone's, compiled with the first
					}
					w.partials[e.ID] = make([]*reduceKernel, len(w.classes))
					for _, cl := range w.classes {
						k, kc := &reduceKernel{op: e.Op}, newKcompiler(cl, s.Region.Rank(), s.Pos)
						kc.close(&k.tree, kc.node(e.X))
						w.partials[e.ID][cl.id] = k
						w.compiles++
					}
				})
			}
		}
	}
}

// assign lowers one assignment.
func (kc *kcompiler) assign(s *ir.AssignArray) *kernel {
	k := &kernel{
		lhs:  kc.addrOf(ir.ArrayUse{Array: s.LHS}),
		mode: storeModeFor(s, kc.inner),
	}
	kc.close(&k.tree, kc.root(s.RHS))
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

// begin starts a run over local, p's non-empty part of the region: it checks
// that the reads stay inside the halo — one test, and only a region that
// fails it looks for the first use to blame — counts the elements, reserves
// the run's scratch rows and values in p's arena and runs the prologue. The
// caller releases the mark returned.
func (t *tree) begin(p *proc, local grid.Region) int {
	if !within(local, t.ok) {
		for _, u := range t.uses {
			if !within(local, heldRows(p.cls, t.inner, u)) {
				panic(unheldRead(t.pos, p.cls.fields[u.Array.ID], u.Off))
			}
		}
	}
	c := &p.kctx
	c.L = local.Spans[t.inner].Len()
	p.elems += int64(local.Size())
	m := p.arena.mark()
	n := t.slots * c.L
	buf := p.arena.alloc(n + t.vals)
	c.scratch, c.vals = buf[:n], buf[n:]
	s := local.Spans
	c.i, c.j, c.k = s[0].Lo, s[1].Lo, s[2].Lo
	for _, f := range t.pre {
		f(c)
	}
	return m
}

// run executes the kernel for processor p over local. The virtual-time
// charge is the caller's job (it depends only on size*Flops, not on how
// elements are evaluated).
func (k *kernel) run(p *proc, local grid.Region) {
	c := &p.kctx
	ldata := c.data[k.lhs.id]
	m := k.begin(p, local)
	switch k.mode {
	case storeDirect:
		forRows(local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			b := k.lhs.at(i, j, kk)
			dst := ldata[b : b+c.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
		})
	case storeRow:
		stage := p.arena.alloc(c.L)
		forRows(local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			out := k.row(c, stage)
			b := k.lhs.at(i, j, kk)
			copy(ldata[b:b+c.L], out)
		})
	case storeFull:
		tmp := p.arena.alloc(local.Size())
		n := 0
		forRows(local, k.inner, func(i, j, kk int) {
			c.i, c.j, c.k = i, j, kk
			dst := tmp[n : n+c.L]
			if out := k.row(c, dst); &out[0] != &dst[0] {
				copy(dst, out)
			}
			n += c.L
		})
		n = 0
		forRows(local, k.inner, func(i, j, kk int) {
			b := k.lhs.at(i, j, kk)
			copy(ldata[b:b+c.L], tmp[n:n+c.L])
			n += c.L
		})
	}
	p.arena.release(m)
}

// run computes the reduction's local partial over local, folding elements
// in row-major order, as internal/ref does, so floating-point results are
// bit-identical.
func (k *reduceKernel) run(p *proc, local grid.Region) float64 {
	c := &p.kctx
	m := k.begin(p, local)
	root := p.arena.alloc(c.L)
	acc := k.op.Identity()
	forRows(local, k.inner, func(i, j, kk int) {
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

// kcompiler lowers an expression tree to row evaluators for one shape
// class's block, over whatever region of it a run hands the tree.
type kcompiler struct {
	cl    *shapeClass
	inner int // the statement region's rank - 1
	slots int
	vals  int
	pre   []func(c *kctx) // the tree's prologue, dependencies first
	once  bool            // compiling prologue code, where nothing is hoisted again
	runs  int             // run rows among the slots
	fills int             // rows broadcast from a value: statement roots only
	ok    grid.Region     // the rows every use compiled so far reads inside the halo over
	uses  []ir.ArrayUse   // the array uses compiled so far
	pos   zpl.Pos         // the statement's, for the errors a run raises
}

func newKcompiler(cl *shapeClass, rank int, pos zpl.Pos) *kcompiler {
	all := grid.Span{Lo: math.MinInt, Hi: math.MaxInt} // nothing read yet: every row allowed
	return &kcompiler{cl: cl, inner: rank - 1, pos: pos, ok: grid.Region{Rank: rank, Spans: [grid.MaxRank]grid.Span{all, all, all}}}
}

// close completes t, the compiled tree whose root is row.
func (kc *kcompiler) close(t *tree, row vec) {
	*t = tree{inner: kc.inner, slots: kc.slots, vals: kc.vals, pre: kc.pre, row: row, ok: kc.ok, uses: kc.uses, pos: kc.pos}
}

// slot reserves a fresh scratch row and returns its index.
func (kc *kcompiler) slot() int {
	s := kc.slots
	kc.slots++
	return s
}

// reads is the classifier's record of a subtree: whether it reads an
// array, the row's own (inner) index, or an outer index.
type reads uint8

const (
	readsArray reads = 1 << iota
	readsInner
	readsOuter
)

func (kc *kcompiler) reads(e ir.Expr) reads {
	switch e := e.(type) {
	case *ir.ArrayRef, *ir.Reduce:
		return readsArray
	case *ir.IndexRef:
		if e.Dim-1 == kc.inner {
			return readsInner
		}
		return readsOuter
	case *ir.Unary:
		return kc.reads(e.X)
	case *ir.Binary:
		return kc.reads(e.X) | kc.reads(e.Y)
	case *ir.Intrinsic:
		var r reads
		for _, a := range e.Args {
			r |= kc.reads(a)
		}
		return r
	}
	return 0
}

// level is the loop level a subtree's value varies at, and so the one it
// is computed at.
type level uint8

const (
	// levelValue reads no array and not the inner index: one scalar for a
	// whole row (kcompiler.value).
	levelValue level = iota
	// levelRun reads the inner index and nothing that changes from one row
	// to the next: one row for the whole run (kcompiler.runRow).
	levelRun
	// levelView is an array reference, read in place.
	levelView
	// levelElem is everything else, computed per row, element by element.
	levelElem
)

// level classifies e. A bare inner index stays per row: writing lo + n
// costs no more than copying a run row would. Inside prologue code a run
// row is per element: it is already computed once per run.
func (kc *kcompiler) level(e ir.Expr) level {
	r := kc.reads(e)
	switch e.(type) {
	case *ir.ArrayRef:
		return levelView
	case *ir.IndexRef:
		if r == readsInner {
			return levelElem
		}
	}
	switch {
	case r&(readsArray|readsInner) == 0:
		return levelValue
	case r == readsInner && !kc.once:
		return levelRun
	}
	return levelElem
}

// distributes reports whether the region distributes dimension d, so
// that its global coordinate is relative to the executing processor's
// origin.
func (kc *kcompiler) distributes(d int) bool { return d < 2 && d <= kc.inner }

// addrOf returns where the rows of use u start, and records u and the rows
// it reads inside the halo over (heldRows). The layout is read off the
// class representative's field, which is affine in the global coordinates:
// base is the flat index there of the relative origin's shifted point, as
// on every member.
func (kc *kcompiler) addrOf(u ir.ArrayUse) addr {
	a, f := addr{id: u.Array.ID}, kc.cl.fields[u.Array.ID]
	if f.Allocated() && f.Stride(kc.inner) == 1 {
		at := u.Off
		for d := range at {
			if kc.distributes(d) {
				at[d] += kc.cl.org[d]
			}
		}
		a.s0, a.s1, a.base = f.Stride(0), f.Stride(1), f.IndexOf(at[0], at[1], at[2])
	}
	kc.uses = append(kc.uses, u)
	kc.ok = kc.ok.Intersect(heldRows(kc.cl, kc.inner, u))
	return a
}

// heldRows returns the rows, relative to the block origin, over which use u
// of a tree with row dimension inner reads inside the halo class cl holds
// of its array: none where the class holds none of it or its rows are not
// contiguous. A run over rows outside them is the program error of the
// first such use (LANGUAGE.md, "Distribution model"); a tree keeps only
// their intersection, and derives a use's own on that error's path.
func heldRows(cl *shapeClass, inner int, u ir.ArrayUse) grid.Region {
	rows, f := nowhere, cl.fields[u.Array.ID]
	if f.Allocated() && f.Stride(inner) == 1 {
		rows = shiftDist(f.Halo(), cl.org, -1)
		for d := range u.Off {
			rows.Spans[d].Lo -= u.Off[d]
			rows.Spans[d].Hi -= u.Off[d]
		}
	}
	rows.Rank = inner + 1
	return rows
}

// within reports whether the non-empty region local lies in rows.
func within(local, rows grid.Region) bool {
	for d, s := range local.Spans {
		if s.Lo < rows.Spans[d].Lo || s.Hi > rows.Spans[d].Hi {
			return false
		}
	}
	return true
}

// unheldRead is the program error of a read at pos, of f at offset off, that
// the processor cannot serve from what it holds of f.
func unheldRead(pos zpl.Pos, f *field.Field, off grid.Offset) *zpl.Error {
	what := "reads outside the halo the processor holds"
	if !f.Allocated() {
		what = "reads an array the processor holds none of"
	}
	at := make([]string, f.Rank) // the offset in the array's rank, as the program wrote it
	for d := range at {
		at[d] = strconv.Itoa(off[d])
	}
	return zpl.Errorf(pos, "%s@[%s] %s", f.Name, strings.Join(at, ","), what)
}

// viewOf compiles an array reference to a zero-copy row view.
func (kc *kcompiler) viewOf(e *ir.ArrayRef) vec {
	a := kc.addrOf(ir.ArrayUse{Array: e.Array, Off: e.Off})
	return func(c *kctx, dst []float64) []float64 {
		b := a.at(c.i, c.j, c.k)
		return c.data[a.id][b : b+c.L]
	}
}

// sval is a compiled value, one scalar for a whole row: k when fn is nil
// (a constant, which costs no closure), fn's result otherwise.
type sval struct {
	k  float64
	fn func(c *kctx) float64
}

func (v sval) at(c *kctx) float64 {
	if v.fn == nil {
		return v.k
	}
	return v.fn(c)
}

// value compiles a levelValue subtree. One that reads no index is the same
// for the whole run: unless it is a leaf, it is computed once, in the
// prologue, into a value slot. The rest — leaves, and what reads an outer
// index — is computed where it is read, once per row. Every operator is
// the scalar semantics' own (ir.EvalUnary, ir.EvalBinary, ir.Intrinsics),
// applied to what the operands' closures return: no tree walk per row.
func (kc *kcompiler) value(e ir.Expr) sval {
	switch e := e.(type) {
	case *ir.Const:
		return sval{k: e.Val}
	case *ir.ScalarRef:
		id := e.Sym.ID
		return sval{fn: func(c *kctx) float64 { return c.scalars[id] }}
	case *ir.IndexRef:
		d := e.Dim - 1
		dist := kc.distributes(d)
		return sval{fn: func(c *kctx) float64 { return float64(c.coord(d, dist)) }}
	}
	if !kc.once && kc.reads(e) == 0 {
		kc.once = true
		v := kc.value(e)
		kc.once = false
		i := kc.vals
		kc.vals++
		kc.pre = append(kc.pre, func(c *kctx) { c.vals[i] = v.at(c) })
		return sval{fn: func(c *kctx) float64 { return c.vals[i] }}
	}
	switch e := e.(type) {
	case *ir.Unary:
		op, x := e.Op, kc.value(e.X)
		return sval{fn: func(c *kctx) float64 { return ir.EvalUnary(op, x.at(c)) }}
	case *ir.Binary:
		op, x, y := e.Op, kc.value(e.X), kc.value(e.Y)
		return sval{fn: func(c *kctx) float64 { return ir.EvalBinary(op, x.at(c), y.at(c)) }}
	case *ir.Intrinsic:
		d, x := &ir.Intrinsics[e.Fn], kc.value(e.Args[0])
		if fn := d.Unary; fn != nil {
			return sval{fn: func(c *kctx) float64 { return fn(x.at(c)) }}
		}
		fn, y := d.Binary, kc.value(e.Args[1])
		return sval{fn: func(c *kctx) float64 { return fn(x.at(c), y.at(c)) }}
	}
	panic(fmt.Sprintf("rt: %T in a value (ir.Lower rejects it)", e))
}

// fill compiles a value at a statement root (A := s): the only place a
// value becomes a row, broadcast over each row. As an operand it stays a
// value (binary).
func (kc *kcompiler) fill(e ir.Expr) vec {
	kc.fills++
	v := kc.value(e)
	return func(c *kctx, dst []float64) []float64 {
		fillRow(dst, v.at(c))
		return dst
	}
}

// runRow compiles a levelRun subtree into a scratch row of its own,
// computed once per run by the prologue and read by every row as a view.
// It depends on the executing processor's origin, so it lives in that
// processor's arena, never in the kernel its class shares. An operator
// node, it writes the row it is handed.
func (kc *kcompiler) runRow(e ir.Expr) vec {
	kc.once = true
	v := kc.node(e)
	kc.once = false
	kc.runs++
	lo := kc.slot()
	hi := lo + 1
	kc.pre = append(kc.pre, func(c *kctx) { v(c, c.scratch[lo*c.L:hi*c.L]) })
	return func(c *kctx, _ []float64) []float64 { return c.scratch[lo*c.L : hi*c.L] }
}

// root compiles the top of an assignment RHS: the one two-operation loop
// (axpy) where the statement has that shape, the tree compiler otherwise.
func (kc *kcompiler) root(e ir.Expr) vec {
	if v := kc.axpy(e); v != nil {
		return v
	}
	return kc.node(e)
}

// axpy recognizes s*X ± Y, X*s ± Y and Y + s*X (s a value, X/Y array
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
		if x, isRef := m.Y.(*ir.ArrayRef); isRef && kc.level(m.X) == levelValue {
			return m.X, x
		}
		if x, isRef := m.X.(*ir.ArrayRef); isRef && kc.level(m.Y) == levelValue {
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
	v, xv, yv := kc.value(s), kc.viewOf(x), kc.viewOf(y)
	return func(c *kctx, dst []float64) []float64 {
		axpyRow(form, dst, v.at(c), xv(c, nil), yv(c, nil))
		return dst
	}
}

// node is the generic tree compiler. Each subtree is compiled at its level:
// a value is a scalar (value), a run row a view of the run's row (runRow),
// and every other operator one loop over rows (rowops.go), with operand
// rows flowing through views or scratch slots. Each node performs exactly
// the expression's arithmetic per element (one operation per loop, no
// refactoring), so values are bit-identical to internal/ref's.
func (kc *kcompiler) node(e ir.Expr) vec {
	switch kc.level(e) {
	case levelValue:
		return kc.fill(e)
	case levelRun:
		return kc.runRow(e)
	}
	switch e := e.(type) {
	case *ir.ArrayRef:
		return kc.viewOf(e)

	case *ir.IndexRef: // the inner index: an outer one is a value
		d := e.Dim - 1
		dist := kc.distributes(d)
		return func(c *kctx, dst []float64) []float64 {
			lo := c.coord(d, dist)
			for n := range dst {
				dst[n] = float64(lo + n)
			}
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

// binary compiles ex ∘ ey by each operand's level. A value is handed to a
// row∘scalar or scalar∘row loop; it never becomes a row. A view — an array
// reference or a run row — is read in place. Anything else is a row: the
// left one is computed into dst, which the loop then overwrites element by
// element, so the right one needs a scratch slot of its own — the only
// case that reserves one. Operand order is the program's throughout: s - A
// is not A - s, and a NaN's payload follows the left operand. (Both
// operands values is a value node, which never gets here.)
func (kc *kcompiler) binary(op rowOp, ex, ey ir.Expr) vec {
	lx, ly := kc.level(ex), kc.level(ey)
	switch {
	case ly == levelValue:
		x, v := kc.node(ex), kc.value(ey)
		return func(c *kctx, dst []float64) []float64 {
			rowScalar(op, dst, x(c, dst), v.at(c))
			return dst
		}
	case lx == levelValue:
		v, y := kc.value(ex), kc.node(ey)
		return func(c *kctx, dst []float64) []float64 {
			scalarRow(op, dst, v.at(c), y(c, dst))
			return dst
		}
	}
	x, y := kc.node(ex), kc.node(ey)
	lo, hi := 0, 0 // y's scratch rows: none for a view
	if ly == levelElem {
		lo = kc.slot()
		hi = lo + 1
	}
	return func(c *kctx, dst []float64) []float64 {
		xs := x(c, dst)
		binRow(op, dst, xs, y(c, c.scratch[lo*c.L:hi*c.L]))
		return dst
	}
}
