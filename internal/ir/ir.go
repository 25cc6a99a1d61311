// Package ir defines the typed SPMD intermediate representation produced
// from a checked ZPL AST, and the lowering (semantic analysis) that builds
// it. The communication optimizer (package comm) and the runtime (package
// rt) both operate on this representation.
//
// The IR mirrors the structured control flow of the source: procedure
// bodies are statement lists whose straight-line runs of array statements
// form the source-level basic blocks that bound the scope of communication
// optimization, exactly as in the paper.
package ir

import (
	"fmt"

	"commopt/internal/grid"
	"commopt/internal/zpl"
)

// Type is a scalar value type. The runtime represents every scalar as a
// float64; Integer and Boolean constrain the front end only.
type Type int

// Scalar types.
const (
	Float Type = iota
	Integer
	Boolean
)

// ScalarKind classifies scalar symbols.
type ScalarKind int

// Scalar symbol kinds.
const (
	ConfigVar ScalarKind = iota // runtime-configurable constant
	ConstVar                    // compile-time constant
	GlobalVar                   // global scalar variable
	LocalVar                    // procedure-local scalar
	ParamVar                    // procedure parameter
	LoopVar                     // for-loop induction variable
)

// ScalarSym is a scalar variable, constant, config, parameter or loop
// variable. Because the subset forbids recursion, every scalar has a single
// static storage slot per processor.
type ScalarSym struct {
	Name string
	Type Type
	Kind ScalarKind
	ID   int  // dense index into the per-processor scalar store
	Init Expr // initializer for configs and consts, nil otherwise
}

func (s *ScalarSym) String() string { return s.Name }

// DirSym is a named direction: a static offset vector.
type DirSym struct {
	Name string
	Off  grid.Offset
}

// RegionSym is a declared region. Bounds are scalar expressions evaluated
// once at program setup (they may reference configs and constants).
type RegionSym struct {
	Name   string
	Pos    zpl.Pos // the declaration's, for Setup's errors
	RankN  int
	Bounds [grid.MaxRank][2]Expr // lo/hi per dimension; nil beyond RankN
	ID     int
}

func (r *RegionSym) String() string { return r.Name }

// ArraySym is a distributed array variable. Its declared region fixes its
// allocation; Ghost is the fluff width required by the offsets the program
// applies to it.
type ArraySym struct {
	Name   string
	Type   Type
	Region *RegionSym
	Ghost  int
	ID     int
}

func (a *ArraySym) String() string { return a.Name }

// RegionExpr is a region reference at a statement: either a declared
// region or an inline literal whose bounds are evaluated on every entry of
// the basic block the statement is in.
type RegionExpr struct {
	Sym    *RegionSym
	RankN  int
	Bounds [grid.MaxRank][2]Expr // literal bounds when Sym == nil
	Pos    zpl.Pos               // a literal's region scope
	// Slot is a literal's dense program-wide index (Program.Literals). Every
	// statement of the literal's scope, and every transfer planned for one,
	// carries the same slot: within a basic block they denote one index set
	// (comm.SplitSegments), which the runtime resolves once per block entry.
	Slot int
}

// Rank returns the region's rank.
func (r RegionExpr) Rank() int {
	if r.Sym != nil {
		return r.Sym.RankN
	}
	return r.RankN
}

// String renders the region reference.
func (r RegionExpr) String() string {
	if r.Sym != nil {
		return "[" + r.Sym.Name + "]"
	}
	return fmt.Sprintf("[literal rank %d]", r.RankN)
}

// Program is a complete lowered program.
type Program struct {
	Name    string
	Configs []*ScalarSym
	Consts  []*ScalarSym
	Scalars []*ScalarSym // every scalar symbol, indexed by ID (includes configs/consts)
	Regions []*RegionSym
	Dirs    []*DirSym
	Arrays  []*ArraySym // indexed by ID
	Procs   []*Proc
	Main    *Proc

	// NumArrayStmts and NumReduces count the program's AssignArray and
	// Reduce nodes, whose IDs run 0..N-1: the runtime's dispatch caches are
	// slices indexed by them, as its region records are by RegionExpr.Slot.
	NumArrayStmts int
	NumReduces    int
	Literals      []RegionExpr // every literal region scope, indexed by Slot
}

// Proc is a lowered procedure.
type Proc struct {
	Name   string
	Params []*ScalarSym
	Body   []Stmt
}

// LookupConfig finds a config symbol by name.
func (p *Program) LookupConfig(name string) *ScalarSym {
	for _, c := range p.Configs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ArrayUse is one distinct (array, offset) reference within a statement.
type ArrayUse struct {
	Array *ArraySym
	Off   grid.Offset
}

// NeedsComm reports whether the use requires communication.
func (u ArrayUse) NeedsComm() bool { return u.Off.NeedsComm() }

// String renders the use like "X@[0,1,0]".
func (u ArrayUse) String() string {
	if u.Off.IsZero() {
		return u.Array.Name
	}
	return u.Array.Name + "@" + u.Off.String()
}

// Stmt is an IR statement.
type Stmt interface{ stmtNode() }

// AssignArray is a whole-array assignment over a region.
type AssignArray struct {
	ID     int // dense program-wide index (Program.NumArrayStmts)
	Pos    zpl.Pos
	Region RegionExpr
	LHS    *ArraySym
	RHS    Expr
	Uses   []ArrayUse // distinct refs in RHS, source order, zero offsets included
	Flops  int        // arithmetic operations per element
}

// AssignScalar assigns a scalar expression (possibly containing
// reductions) to a scalar variable. When the RHS reduces an array
// expression, Region scopes the reduction and Uses lists the array
// references (which may require communication).
type AssignScalar struct {
	Pos       zpl.Pos
	Region    RegionExpr // valid iff HasReduce
	LHS       *ScalarSym
	RHS       Expr
	HasReduce bool
	Uses      []ArrayUse
	Flops     int
}

// If is structured selection (elsif arms are lowered to nested Ifs).
type If struct {
	Pos  zpl.Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Repeat is repeat ... until.
type Repeat struct {
	Pos   zpl.Pos
	Body  []Stmt
	Until Expr
}

// While is while ... do.
type While struct {
	Pos  zpl.Pos
	Cond Expr
	Body []Stmt
}

// For is a sequential scalar loop.
type For struct {
	Pos    zpl.Pos
	Var    *ScalarSym
	Lo, Hi Expr
	Down   bool
	Body   []Stmt
}

// Call invokes a procedure with scalar arguments.
type Call struct {
	Pos  zpl.Pos
	Proc *Proc
	Args []Expr
}

// Write prints scalar values and strings on rank 0.
type Write struct {
	Pos  zpl.Pos
	Args []Expr
}

func (*AssignArray) stmtNode()  {}
func (*AssignScalar) stmtNode() {}
func (*If) stmtNode()           {}
func (*Repeat) stmtNode()       {}
func (*While) stmtNode()        {}
func (*For) stmtNode()          {}
func (*Call) stmtNode()         {}
func (*Write) stmtNode()        {}

// Expr is an IR expression.
type Expr interface{ exprNode() }

// Const is a literal number or boolean (booleans are 0/1).
type Const struct {
	Val float64
	Typ Type
}

// Str is a string literal (Write arguments only).
type Str struct{ Val string }

// ScalarRef reads a scalar symbol.
type ScalarRef struct{ Sym *ScalarSym }

// ArrayRef reads an array element at the current index point shifted by
// Off (zero Off for an unshifted reference).
type ArrayRef struct {
	Array *ArraySym
	Off   grid.Offset
}

// IndexRef is the compile-time index array IndexD: its value at point
// (i,j,k) is the global index in dimension Dim (1-based).
type IndexRef struct{ Dim int }

// Unary applies - or not.
type Unary struct {
	Op zpl.Kind
	X  Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   zpl.Kind
	X, Y Expr
}

// IntrinsicFn identifies a built-in function.
type IntrinsicFn int

// Intrinsic functions.
const (
	FnAbs IntrinsicFn = iota
	FnSqrt
	FnExp
	FnLog
	FnSin
	FnCos
	FnMin
	FnMax
	FnPow
	FnSign
	FnFloor
)

var intrinsicNames = map[string]IntrinsicFn{
	"abs": FnAbs, "fabs": FnAbs, "sqrt": FnSqrt, "exp": FnExp,
	"log": FnLog, "ln": FnLog, "sin": FnSin, "cos": FnCos,
	"min": FnMin, "max": FnMax, "pow": FnPow, "sign": FnSign, "floor": FnFloor,
}

// Intrinsic invokes a built-in function.
type Intrinsic struct {
	Fn   IntrinsicFn
	Args []Expr
}

// ReduceOp is a reduction operator.
type ReduceOp int

// Reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMax
	ReduceMin
)

// Identity returns the operator's identity element.
func (op ReduceOp) Identity() float64 {
	switch op {
	case ReduceSum:
		return 0
	case ReduceProd:
		return 1
	case ReduceMax:
		return negInf
	case ReduceMin:
		return posInf
	}
	panic("ir: bad reduce op")
}

// Combine applies the operator to two partial values.
func (op ReduceOp) Combine(a, b float64) float64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceProd:
		return a * b
	case ReduceMax:
		if a > b {
			return a
		}
		return b
	case ReduceMin:
		if a < b {
			return a
		}
		return b
	}
	panic("ir: bad reduce op")
}

// String renders the operator in source syntax.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "+<<"
	case ReduceProd:
		return "*<<"
	case ReduceMax:
		return "max<<"
	case ReduceMin:
		return "min<<"
	}
	return "?<<"
}

// Reduce reduces an array expression over the statement's region to a
// scalar.
type Reduce struct {
	ID int // dense program-wide index (Program.NumReduces)
	Op ReduceOp
	X  Expr
}

func (*Const) exprNode()     {}
func (*Str) exprNode()       {}
func (*ScalarRef) exprNode() {}
func (*ArrayRef) exprNode()  {}
func (*IndexRef) exprNode()  {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Intrinsic) exprNode() {}
func (*Reduce) exprNode()    {}
