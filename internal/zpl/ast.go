package zpl

// Program is the root of a parsed ZPL compilation unit.
type Program struct {
	Name  string
	Decls []Decl
	Procs []*ProcDecl
}

// Decl is a top-level declaration.
type Decl interface{ declNode() }

// TypeName is a scalar base type.
type TypeName int

// Scalar base types.
const (
	TypeFloat TypeName = iota
	TypeInteger
	TypeBoolean
)

// String renders the type in source syntax.
func (t TypeName) String() string {
	switch t {
	case TypeFloat:
		return "float"
	case TypeInteger:
		return "integer"
	case TypeBoolean:
		return "boolean"
	}
	return "?"
}

// Range is one dimension of a region: lo..hi.
type Range struct {
	Lo, Hi Expr
}

// ConfigDecl declares runtime-configurable scalar constants:
// config var n : integer = 128;
type ConfigDecl struct {
	Pos   Pos
	Names []string
	Type  TypeName
	Init  Expr
}

// ConstDecl declares a compile-time scalar constant.
type ConstDecl struct {
	Pos   Pos
	Name  string
	Type  TypeName
	Value Expr
}

// RegionDecl declares a named region: region R = [1..n, 1..n];
type RegionDecl struct {
	Pos    Pos
	Name   string
	Ranges []Range
}

// DirectionDecl declares a named static offset vector:
// direction east = [0, 1];
type DirectionDecl struct {
	Pos   Pos
	Name  string
	Comps []Expr
}

// VarDecl declares scalar or array variables:
// var A, B : [R] float;   var s : float;
type VarDecl struct {
	Pos    Pos
	Names  []string
	Region string // "" for scalars
	Type   TypeName
}

func (*ConfigDecl) declNode()    {}
func (*ConstDecl) declNode()     {}
func (*RegionDecl) declNode()    {}
func (*DirectionDecl) declNode() {}
func (*VarDecl) declNode()       {}

// Param is a scalar by-value procedure parameter.
type Param struct {
	Name string
	Type TypeName
}

// ProcDecl is a procedure definition. The procedure named "main" is the
// program entry point.
type ProcDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Locals []*VarDecl
	Body   []Stmt
}

// RegionRef names a region scope: either a declared region (Name != "") or
// an inline region literal whose bounds are evaluated at run time.
type RegionRef struct {
	Name   string
	Ranges []Range
}

// DirRef names a direction: either declared (Name != "") or an inline
// literal offset vector.
type DirRef struct {
	Name  string
	Comps []Expr
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// ScopeStmt applies a region scope to a single statement (which may be a
// compound statement).
type ScopeStmt struct {
	Pos    Pos
	Region RegionRef
	Body   Stmt
}

// CompoundStmt is begin ... end.
type CompoundStmt struct {
	Pos  Pos
	Body []Stmt
}

// AssignStmt assigns an expression to a scalar or array variable.
type AssignStmt struct {
	Pos Pos
	LHS string
	RHS Expr
}

// IfStmt is if/elsif/else.
type IfStmt struct {
	Pos   Pos
	Cond  Expr
	Then  []Stmt
	Elifs []ElifArm
	Else  []Stmt
}

// ElifArm is one elsif arm.
type ElifArm struct {
	Cond Expr
	Body []Stmt
}

// RepeatStmt is repeat ... until cond;
type RepeatStmt struct {
	Pos   Pos
	Body  []Stmt
	Until Expr
}

// WhileStmt is while cond do ... end;
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// ForStmt is for v := lo to|downto hi do ... end;
type ForStmt struct {
	Pos    Pos
	Var    string
	Lo, Hi Expr
	Down   bool
	Body   []Stmt
}

// CallStmt invokes a user procedure.
type CallStmt struct {
	Pos  Pos
	Name string
	Args []Expr
}

// WriteStmt prints its arguments on the console (rank 0 only at run time).
type WriteStmt struct {
	Pos  Pos
	Args []Expr
}

func (*ScopeStmt) stmtNode()    {}
func (*CompoundStmt) stmtNode() {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*RepeatStmt) stmtNode()   {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*CallStmt) stmtNode()     {}
func (*WriteStmt) stmtNode()    {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// NumLit is a numeric literal.
type NumLit struct {
	Pos   Pos
	Text  string
	Value float64
	IsInt bool
}

// BoolLit is true or false.
type BoolLit struct {
	Pos   Pos
	Value bool
}

// StrLit is a string literal (writeln arguments only).
type StrLit struct {
	Pos   Pos
	Value string
}

// Ident references a scalar or array variable, constant, or config.
type Ident struct {
	Pos  Pos
	Name string
}

// AtExpr is a shifted array reference: A@east or A@[0,1].
type AtExpr struct {
	Pos   Pos
	Array string
	Dir   DirRef
}

// UnaryExpr applies a prefix operator: - or not.
type UnaryExpr struct {
	Pos Pos
	Op  Kind
	X   Expr
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Pos  Pos
	Op   Kind
	X, Y Expr
}

// CallExpr invokes an intrinsic function (sqrt, abs, min, max, ...).
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

// ReduceExpr is a full-array reduction: op<< expr, yielding a scalar.
type ReduceExpr struct {
	Pos Pos
	Op  string // "+", "*", "max", "min"
	X   Expr
}

func (*NumLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*StrLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*AtExpr) exprNode()     {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*CallExpr) exprNode()   {}
func (*ReduceExpr) exprNode() {}
