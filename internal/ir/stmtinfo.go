package ir

import "commopt/internal/zpl"

// Statement accessors shared by the communication optimizer and its plan
// validity checker: a single definition of which statements belong in a
// source-level basic block and what each one defines, uses, covers and
// costs. The comm package's block analyses are built entirely from these.

// PosOf returns the ZPL source position a statement was lowered from (the
// zero position for statements built without one, e.g. in tests). The
// lowerer threads every statement's position through, so diagnostics from
// the linter and the plan verifier can point at source lines.
func PosOf(s Stmt) zpl.Pos {
	switch s := s.(type) {
	case *AssignArray:
		return s.Pos
	case *AssignScalar:
		return s.Pos
	case *If:
		return s.Pos
	case *Repeat:
		return s.Pos
	case *While:
		return s.Pos
	case *For:
		return s.Pos
	case *Call:
		return s.Pos
	case *Write:
		return s.Pos
	}
	return zpl.Pos{}
}

// IsStraightLine reports whether s may appear inside a source-level basic
// block. Control statements bound blocks; their bodies are optimized
// recursively.
func IsStraightLine(s Stmt) bool {
	switch s.(type) {
	case *AssignArray, *AssignScalar, *Write:
		return true
	}
	return false
}

// UsesOf returns the distinct array uses of a straight-line statement
// (nil for statements without array reads).
func UsesOf(s Stmt) []ArrayUse {
	switch s := s.(type) {
	case *AssignArray:
		return s.Uses
	case *AssignScalar:
		return s.Uses
	}
	return nil
}

// DefOf returns the array a straight-line statement defines, or nil.
func DefOf(s Stmt) *ArraySym {
	if a, ok := s.(*AssignArray); ok {
		return a.LHS
	}
	return nil
}

// RegionOf returns the region an array statement executes over (the zero
// RegionExpr for statements without one).
func RegionOf(s Stmt) RegionExpr {
	switch s := s.(type) {
	case *AssignArray:
		return s.Region
	case *AssignScalar:
		return s.Region
	}
	return RegionExpr{}
}

// FlopsOf returns the statement's per-element cost estimate, the
// latency-hiding distance weight of the optimizer.
func FlopsOf(s Stmt) int {
	switch s := s.(type) {
	case *AssignArray:
		return s.Flops
	case *AssignScalar:
		return s.Flops
	}
	return 0
}

// EachReduce calls fn with every reduction in a scalar expression, left to
// right.
func EachReduce(e Expr, fn func(*Reduce)) {
	switch e := e.(type) {
	case *Reduce:
		fn(e)
	case *Unary:
		EachReduce(e.X, fn)
	case *Binary:
		EachReduce(e.X, fn)
		EachReduce(e.Y, fn)
	case *Intrinsic:
		for _, a := range e.Args {
			EachReduce(a, fn)
		}
	}
}

// EachScalarRef calls fn with every scalar symbol a scalar expression reads.
func EachScalarRef(e Expr, fn func(*ScalarSym)) {
	switch e := e.(type) {
	case *ScalarRef:
		fn(e.Sym)
	case *Unary:
		EachScalarRef(e.X, fn)
	case *Binary:
		EachScalarRef(e.X, fn)
		EachScalarRef(e.Y, fn)
	case *Intrinsic:
		for _, a := range e.Args {
			EachScalarRef(a, fn)
		}
	}
}
