package ir

import (
	"errors"
	"strings"
	"testing"

	"commopt/internal/grid"
	"commopt/internal/zpl"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Lower(ast)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func lowerErr(t *testing.T, src, wantSub string) {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Lower(ast)
	if err == nil {
		t.Fatalf("lower succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

const header = `
program t;
config var n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1]; north = [-1, 0]; se2 = [2, 2];
var A, B : [R] float;
var s : float;
`

func TestLowerBasics(t *testing.T) {
	p := lower(t, header+`procedure main(); begin [R] A := B@east + s; end;`)
	if p.Main == nil || len(p.Main.Body) != 1 {
		t.Fatal("main body missing")
	}
	a := p.Main.Body[0].(*AssignArray)
	if a.LHS.Name != "A" {
		t.Errorf("lhs = %v", a.LHS)
	}
	if len(a.Uses) != 1 || a.Uses[0].Array.Name != "B" || a.Uses[0].Off != (grid.Offset{0, 1, 0}) {
		t.Errorf("uses = %v", a.Uses)
	}
	if a.Flops != 2 { // one add, one store
		t.Errorf("flops = %d", a.Flops)
	}
	if a.Region.Sym == nil || a.Region.Sym.Name != "R" {
		t.Errorf("region = %v", a.Region)
	}
}

func TestGhostWidths(t *testing.T) {
	p := lower(t, header+`procedure main(); begin [R] A := B@east + B@se2; [R] B := A; end;`)
	if g := p.LookupArray("B").Ghost; g != 2 {
		t.Errorf("B ghost = %d, want 2 (from se2)", g)
	}
	if g := p.LookupArray("A").Ghost; g != 0 {
		t.Errorf("A ghost = %d, want 0 (never shifted)", g)
	}
}

func TestDistinctUsesDeduped(t *testing.T) {
	p := lower(t, header+`procedure main(); begin [R] A := B@east + B@east * B@north; end;`)
	a := p.Main.Body[0].(*AssignArray)
	if len(a.Uses) != 2 {
		t.Errorf("uses = %v, want B@east and B@north once each", a.Uses)
	}
}

func TestReduceLowering(t *testing.T) {
	p := lower(t, header+`procedure main(); begin [R] s := max<< abs(A@east - A); end;`)
	st := p.Main.Body[0].(*AssignScalar)
	if !st.HasReduce {
		t.Fatal("HasReduce not set")
	}
	if len(st.Uses) != 2 {
		t.Errorf("uses = %v", st.Uses)
	}
	if st.Region.Sym == nil {
		t.Error("reduce region not captured")
	}
}

func TestElifLowering(t *testing.T) {
	p := lower(t, header+`procedure main(); begin
	  if s > 1.0 then s := 1.0; elsif s > 0.5 then s := 0.5; else s := 0.0; end;
	end;`)
	top := p.Main.Body[0].(*If)
	inner, ok := top.Else[0].(*If)
	if !ok {
		t.Fatalf("elsif did not lower to nested if: %T", top.Else[0])
	}
	if len(inner.Else) != 1 {
		t.Errorf("final else missing")
	}
}

func TestLoopVarScoping(t *testing.T) {
	p := lower(t, header+`procedure main(); begin
	  for i := 1 to n do s := s + i; end;
	  for i := 1 to 2 do s := s - i; end;
	end;`)
	f1 := p.Main.Body[0].(*For)
	f2 := p.Main.Body[1].(*For)
	if f1.Var == f2.Var {
		t.Error("loop variables should be distinct symbols")
	}
	if f1.Var.Kind != LoopVar {
		t.Error("loop var kind wrong")
	}
}

func TestProcParamsAndLocals(t *testing.T) {
	p := lower(t, header+`
	procedure f(x : float);
	  var y : float;
	  var L : [R] float;
	begin
	  y := x * 2.0;
	  [R] L := A + y;
	end;
	procedure main(); begin f(1.0); end;`)
	f := p.LookupProc("f")
	if len(f.Params) != 1 || f.Params[0].Kind != ParamVar {
		t.Fatalf("params = %v", f.Params)
	}
	if p.LookupArray("f.L") == nil {
		t.Error("local array not hoisted with procedure prefix")
	}
	call := p.Main.Body[0].(*Call)
	if call.Proc != f {
		t.Error("call target wrong")
	}
}

func TestScalarIDsDense(t *testing.T) {
	p := lower(t, header+`procedure main(); begin s := 1.0; end;`)
	for i, sym := range p.Scalars {
		if sym.ID != i {
			t.Fatalf("scalar %s ID %d at index %d", sym.Name, sym.ID, i)
		}
	}
}

func TestErrors(t *testing.T) {
	lowerErr(t, header+`procedure main(); begin A := B; end;`, "region")
	lowerErr(t, header+`procedure main(); begin s := A; end;`, "scalar context")
	lowerErr(t, header+`procedure main(); begin [R] s := A@east + 1.0; end;`, "scalar context")
	lowerErr(t, header+`procedure main(); begin [R] A := C@east; end;`, "unknown array")
	lowerErr(t, header+`procedure main(); begin [R] A := B@nowhere; end;`, "unknown direction")
	lowerErr(t, header+`procedure main(); begin [Q] A := B; end;`, `unknown region "Q"`)
	lowerErr(t, header+`procedure main(); begin if A then s := 1.0; end; end;`, "scalar")
	lowerErr(t, header+`procedure main(); begin n := 2.0; end;`, "constant")
	lowerErr(t, header+`procedure main(); begin undeclared := 1.0; end;`, "undeclared")
	lowerErr(t, header+`procedure main(); begin f(); end;`, "unknown procedure")
	lowerErr(t, `program t; procedure main(); begin end; procedure main(); begin end;`, "duplicate procedure")
	lowerErr(t, `program t; procedure notmain(); begin end;`, "no procedure main")
	lowerErr(t, header+`procedure main(); begin writeln(A); end;`, "scalar")
	lowerErr(t, header+`procedure loop(); begin loop(); end; procedure main(); begin loop(); end;`, "recursive")
	lowerErr(t, header+`procedure main(); begin [1..n] A := B; end;`, "rank")
}

func TestMutualRecursionRejected(t *testing.T) {
	lowerErr(t, `program t;
	procedure a(); begin b(); end;
	procedure b(); begin a(); end;
	procedure main(); begin a(); end;`, "recursive")
}

func TestDirectionConstFolding(t *testing.T) {
	p := lower(t, `program t;
	constant two : integer = 2;
	region R = [1..8, 1..8];
	direction far = [two * 2, -two];
	var A, B : [R] float;
	procedure main(); begin [R] A := B@far; end;`)
	if off := p.Dirs[0].Off; off != (grid.Offset{4, -2, 0}) {
		t.Errorf("direction far = %v", off)
	}
	if g := p.LookupArray("B").Ghost; g != 4 {
		t.Errorf("ghost = %d, want 4", g)
	}
}

func TestConfigNotAllowedInDirection(t *testing.T) {
	lowerErr(t, `program t;
	config var k : integer = 1;
	region R = [1..8, 1..8];
	direction d = [k, 0];
	procedure main(); begin end;`, "constant integer")
}

func TestIndexRefs(t *testing.T) {
	p := lower(t, header+`procedure main(); begin [R] A := Index1 * 10.0 + Index2; end;`)
	a := p.Main.Body[0].(*AssignArray)
	if len(a.Uses) != 0 {
		t.Errorf("Index refs should not be array uses: %v", a.Uses)
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op       ReduceOp
		id       float64
		a, b, cb float64
	}{
		{ReduceSum, 0, 2, 3, 5},
		{ReduceProd, 1, 2, 3, 6},
		{ReduceMax, negInf, 2, 3, 3},
		{ReduceMin, posInf, 2, 3, 2},
	}
	for _, c := range cases {
		if c.op.Identity() != c.id {
			t.Errorf("%v identity = %v", c.op, c.op.Identity())
		}
		if got := c.op.Combine(c.a, c.b); got != c.cb {
			t.Errorf("%v combine = %v, want %v", c.op, got, c.cb)
		}
	}
}

func TestIntrinsicArityChecked(t *testing.T) {
	lowerErr(t, header+`procedure main(); begin s := sqrt(1.0, 2.0); end;`, "argument")
}

// Setup evaluates config, constant and declared-region initializers before
// any variable has a value, so Lower admits only literals, configs and
// constants there, with an error at the declaration.
func TestSetupInitializersReadOnlyConstants(t *testing.T) {
	for _, c := range []struct{ decl, want string }{
		{`config var n : integer = 8 + k;`, `config "n" initializer reads "k"`},
		{`constant c : integer = k * 2;`, `constant "c" reads "k"`},
		{`region R = [1..k, 1..4];`, `region "R" bound reads "k"`},
	} {
		ast, err := zpl.Parse("program t;\nvar k : integer;\n" + c.decl + "\nprocedure main(); begin end;")
		if err != nil {
			t.Fatal(err)
		}
		_, err = Lower(ast)
		if e, ok := err.(*zpl.Error); !ok || e.Pos.Line != 3 || !strings.Contains(e.Msg, c.want) {
			t.Errorf("%s: error %v, want one at line 3 containing %q", c.decl, err, c.want)
		}
	}
	lower(t, `program t;
	config var n : integer = 8;
	constant m : integer = n - 1;
	config var h : float = 1.0 / m + sqrt(n);
	region R = [1..m, 1..n];
	procedure main(); begin end;`)
}

// A direction component folds with the language's operators: `/` is real
// division, and the result must be an integer.
func TestDirectionRealDivision(t *testing.T) {
	for _, comp := range []string{"3/2", "1/0", "0/0"} {
		lowerErr(t, `program t; direction odd = [0, `+comp+`]; procedure main(); begin end;`, "is not a constant integer")
	}
	p := lower(t, `program t; constant h : float = 0.5; direction d = [3/2*2, h*4, 7 % 4]; procedure main(); begin end;`)
	if off := p.Dirs[0].Off; off != (grid.Offset{3, 2, 3}) {
		t.Errorf("direction d = %v, want [3,2,3]", off)
	}
}

func TestSetup(t *testing.T) {
	p := lower(t, `program t;
	config var n : integer = 8;
	constant m : integer = n / 2;
	region L = [1..n];
	region R = [0..m, 1..n];
	var A : [R] float;
	procedure main(); begin [R] A := A@[1, 0]; end;`)
	s, err := p.Setup(map[string]float64{"n": 12}, grid.NewMesh(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Vals[p.Consts[0].ID]; got != 6 {
		t.Errorf("m = %g under n = 12, want 6", got)
	}
	if got := s.Regions[1].String(); got != "[0..6, 1..12]" {
		t.Errorf("R = %s", got)
	}
	if s.Master != [2]grid.Span{{Lo: 0, Hi: 6}, {Lo: 1, Hi: 12}} {
		t.Errorf("master = %v: the first rank-2 region anchors both dimensions", s.Master)
	}
	for _, c := range []struct {
		vars map[string]float64
		mesh grid.Mesh
		want string
	}{
		{map[string]float64{"q": 1}, grid.NewMesh(1, 1), `no config variable "q"`},
		{map[string]float64{"n": 7}, grid.NewMesh(1, 1), "non-integer bounds 0..3.5"},
		{map[string]float64{"n": 0}, grid.NewMesh(1, 1), "region L is empty"},
		{nil, grid.NewMesh(8, 1), "smaller than the 1-wide ghost region"},
	} {
		if _, err := p.Setup(c.vars, c.mesh); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Setup(%v, %v) = %v, want an error containing %q", c.vars, c.mesh, err, c.want)
		}
	}
}

// A region whose bounds evaluate to non-integers, or to nothing, is an
// error at the region's declaration.
func TestSetupRegionErrorsArePositioned(t *testing.T) {
	p := lower(t, `program half;
config var n : integer = 4;
  region R = [1..n/8, 1..n];
var A : [R] float;
procedure main(); begin [R] A := 1.0; end;`)
	for _, c := range []struct {
		vars map[string]float64
		want string
	}{
		{nil, "region R: non-integer bounds 1..0.5"},
		{map[string]float64{"n": -8}, "region R is empty"},
	} {
		_, err := p.Setup(c.vars, grid.NewMesh(1, 1))
		var e *zpl.Error
		if !errors.As(err, &e) {
			t.Fatalf("Setup(%v) = %v, want a *zpl.Error", c.vars, err)
		}
		if e.Pos.Line != 3 || e.Pos.Col != 3 || !strings.HasPrefix(e.Msg, c.want) {
			t.Errorf("Setup(%v) = %v, want 3:3: %s", c.vars, err, c.want)
		}
	}
}

// Compile names every syntax error with the file and its position, and a
// lowering error the same way.
func TestCompileNamesErrors(t *testing.T) {
	_, _, err := Compile("bad.zpl", "program p;\nvar A : float;\nprocedure main();\nbegin\n  A := ;\n  A := 1.0 +;\nend;\n")
	want := "bad.zpl:5:8: expected expression, found ; \";\"\nbad.zpl:6:13: expected expression, found ; \";\""
	if err == nil || err.Error() != want {
		t.Errorf("two syntax errors: %v, want\n%s", err, want)
	}
	_, _, err = Compile("sema.zpl", "program p;\nprocedure main();\nbegin\n  x := 1.0;\nend;\n")
	var e *zpl.Error
	if !errors.As(err, &e) || !strings.HasPrefix(err.Error(), "sema.zpl:4:") {
		t.Errorf("lowering error %v, want a *zpl.Error named sema.zpl:4:", err)
	}
	if ast, prog, err := Compile("ok.zpl", "program p;\nregion R = [1..4];\nprocedure main(); begin end;\n"); err != nil || ast == nil || prog.Name != "p" {
		t.Errorf("Compile of a clean file: %v", err)
	}
}
