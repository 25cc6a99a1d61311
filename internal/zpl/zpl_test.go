package zpl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// LexAll tokenizes the entire input.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := LexAll(`program p; -- comment to end of line
region R = [1..n, 1..n];
A := B@east + 0.25 * max<< C; x := 1.5e-3;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{
		KWPROGRAM, IDENT, SEMI,
		KWREGION, IDENT, EQ, LBRACK, NUMBER, DOTDOT, IDENT, COMMA, NUMBER, DOTDOT, IDENT, RBRACK, SEMI,
		IDENT, ASSIGN, IDENT, AT, IDENT, PLUS, NUMBER, STAR, KWMAX, REDUCE, IDENT, SEMI,
		IDENT, ASSIGN, NUMBER, SEMI, EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  bb\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Fatalf("positions %v %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "a $ b", "1.2e+", "x ! y"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestLexDotDotAfterNumber(t *testing.T) {
	toks, err := LexAll("1..n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != NUMBER || toks[1].Kind != DOTDOT || toks[2].Kind != IDENT {
		t.Fatalf("1..n lexed as %v %v %v", toks[0].Kind, toks[1].Kind, toks[2].Kind)
	}
}

const parserSrc = `
program demo;

config var n : integer = 8;
constant c : float = 0.25;
region R = [1..n, 1..n];
direction east = [0, 1];
direction nw = [-1, -1];
var A, B : [R] float;
var s : float;

procedure helper(x : float; k : integer);
  var tmp : float;
begin
  tmp := x * k;
  [R] A := A + tmp;
end;

procedure main();
begin
  [R] A := Index1 + Index2;
  [R] B := 0.0;
  for i := 1 to n do
    [R] B := c * (A@east + A@nw) + B;
    if s > 1.0 then
      s := s - 1.0;
    elsif s > 0.5 then
      s := s * 2.0;
    else
      s := 0.0;
    end;
  end;
  repeat
    [R] s := +<< A;
  until s >= 0.0;
  while s > 10.0 do
    s := s / 2.0;
  end;
  helper(s, 3);
  writeln("s = ", s);
end;
`

func TestParseAndPrintRoundTrip(t *testing.T) {
	p1, err := Parse(parserSrc)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Print(p1)
	p2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, text1)
	}
	text2 := Print(p2)
	if text1 != text2 {
		t.Fatalf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseStructure(t *testing.T) {
	p, err := Parse(parserSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Decls) != 7 {
		t.Errorf("decls = %d, want 7", len(p.Decls))
	}
	if len(p.Procs) != 2 {
		t.Fatalf("procs = %d", len(p.Procs))
	}
	h := p.Procs[0]
	if h.Name != "helper" || len(h.Params) != 2 || len(h.Locals) != 1 {
		t.Errorf("helper = %+v", h)
	}
	if h.Params[1].Type != TypeInteger {
		t.Errorf("param k type = %v", h.Params[1].Type)
	}
}

func TestParsePrecedence(t *testing.T) {
	p, err := Parse("program p; var a, b, c, d : float; procedure main(); begin a := b + c * d; end;")
	if err != nil {
		t.Fatal(err)
	}
	assign := p.Procs[0].Body[0].(*AssignStmt)
	bin := assign.RHS.(*BinaryExpr)
	if bin.Op != PLUS {
		t.Fatalf("top operator %v, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*BinaryExpr); !ok || inner.Op != STAR {
		t.Fatalf("right operand %T, want c*d", bin.Y)
	}
}

func TestParseReductionVsAddition(t *testing.T) {
	p, err := Parse("program p; region R = [1..4]; var A : [R] float; var s : float; procedure main(); begin [R] s := +<< A; end;")
	if err != nil {
		t.Fatal(err)
	}
	scope := p.Procs[0].Body[0].(*ScopeStmt)
	assign := scope.Body.(*AssignStmt)
	red, ok := assign.RHS.(*ReduceExpr)
	if !ok || red.Op != "+" {
		t.Fatalf("RHS = %T, want +<< reduction", assign.RHS)
	}
}

func TestParseRegionLiteralScope(t *testing.T) {
	p, err := Parse("program p; region R = [1..8, 1..8]; var A : [R] float; procedure main(); var i : integer; begin [i..i, 2..7] A := A + 1.0; end;")
	if err != nil {
		t.Fatal(err)
	}
	scope := p.Procs[0].Body[0].(*ScopeStmt)
	if scope.Region.Name != "" || len(scope.Region.Ranges) != 2 {
		t.Fatalf("scope = %+v, want 2-range literal", scope.Region)
	}
}

func TestParseAtLiteralDirection(t *testing.T) {
	p, err := Parse("program p; region R = [1..4, 1..4]; var A, B : [R] float; procedure main(); begin [R] A := B@[0, 1]; end;")
	if err != nil {
		t.Fatal(err)
	}
	scope := p.Procs[0].Body[0].(*ScopeStmt)
	at := scope.Body.(*AssignStmt).RHS.(*AtExpr)
	if at.Array != "B" || len(at.Dir.Comps) != 2 {
		t.Fatalf("at = %+v", at)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                       // no program
		"program p",                              // missing semicolon
		"program p; procedure main(; begin end;", // bad params
		"program p; procedure main(); begin x := ; end;",
		"program p; procedure main(); begin if x then end;",         // missing cond use... cond is x, then no end of if body: actually fine; use worse:
		"program p; procedure main(); begin for i = 1 to 2 do end;", // = instead of :=
		"program p; region R = [1..n; procedure main(); begin end;", // bad region
		"program p; procedure main(); begin A := B@(1,2); end;",     // bad direction
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// randomExpr builds a random expression tree for the round-trip property.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &NumLit{Text: "3.5", Value: 3.5}
		case 1:
			return &NumLit{Text: "7", Value: 7, IsInt: true}
		case 2:
			return &Ident{Name: "x"}
		default:
			return &AtExpr{Array: "A", Dir: DirRef{Name: "east"}}
		}
	}
	switch r.Intn(4) {
	case 0:
		ops := []Kind{PLUS, MINUS, STAR, SLASH, LT, GE, KWAND, KWOR, EQ, NE, PERCENT}
		return &BinaryExpr{Op: ops[r.Intn(len(ops))], X: randomExpr(r, depth-1), Y: randomExpr(r, depth-1)}
	case 1:
		return &UnaryExpr{Op: MINUS, X: randomExpr(r, depth-1)}
	case 2:
		return &CallExpr{Name: "sqrt", Args: []Expr{randomExpr(r, depth-1)}}
	default:
		return &CallExpr{Name: "max", Args: []Expr{randomExpr(r, depth-1), randomExpr(r, depth-1)}}
	}
}

// TestExprRoundTripProperty: printing an arbitrary expression and parsing
// it back is an identity (modulo the full parenthesization the printer
// emits, which the second print reproduces).
func TestExprRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		src := "program p; region R = [1..4, 1..4]; direction east = [0,1]; var A, B : [R] float; var x : float;" +
			" procedure main(); begin [R] B := " + ExprString(e) + "; end;"
		p1, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: parse error %v for %s", seed, err, ExprString(e))
			return false
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Logf("seed %d: reparse error %v", seed, err)
			return false
		}
		return Print(p2) == printed
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	if _, err := Parse("PROGRAM p; PROCEDURE main(); BEGIN END;"); err != nil {
		t.Fatalf("uppercase keywords rejected: %v", err)
	}
}

func TestCommentsStripped(t *testing.T) {
	p, err := Parse("program p; -- trailing comment\nprocedure main(); begin\n-- a comment line\nend;")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Procs[0].Body) != 0 {
		t.Fatal("comment produced statements")
	}
}

func TestPrintContainsDeclarations(t *testing.T) {
	p, err := Parse(parserSrc)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(p)
	for _, want := range []string{"config var n", "constant c", "region R", "direction east", "var A, B : [R] float", "procedure helper(x : float; k : integer);"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed program missing %q:\n%s", want, out)
		}
	}
}

// TestParseAllRecovery checks that one parse reports every independent
// statement-level mistake, not just the first.
func TestParseAllRecovery(t *testing.T) {
	src := `program p;

config var n : integer = 8;

region R = [1..n, 1..n];

var A, B : [R] float;

procedure main();
begin
  A := ;
  B 1.0;
  A := B +;
  B := A;
end;
`
	prog, errs := ParseAll(src)
	if prog == nil {
		t.Fatal("ParseAll returned nil program")
	}
	wantLines := []int{11, 12, 13}
	if len(errs) != len(wantLines) {
		t.Fatalf("got %d errors, want %d:\n%v", len(errs), len(wantLines), errs)
	}
	for i, want := range wantLines {
		if errs[i].Pos.Line != want {
			t.Errorf("error %d at line %d, want %d: %v", i, errs[i].Pos.Line, want, errs[i])
		}
	}
	// The healthy statement after the errors still made it into the AST.
	if n := len(prog.Procs); n != 1 {
		t.Fatalf("got %d procs, want 1", n)
	}
}

// TestParseAllClean checks that recovery changes nothing for valid input.
func TestParseAllClean(t *testing.T) {
	src := "program p;\nprocedure main();\nbegin\nwriteln(1);\nend;\n"
	prog, errs := ParseAll(src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if prog.Name != "p" || len(prog.Procs) != 1 {
		t.Fatalf("bad program: %+v", prog)
	}
}

// TestParseAllErrorCap checks the parse gives up at the error cap instead
// of drowning the user.
func TestParseAllErrorCap(t *testing.T) {
	src := "program p;\nprocedure main();\nbegin\n" +
		strings.Repeat("  A := ;\n", 30) + "end;\n"
	_, errs := ParseAll(src)
	if len(errs) != maxParseErrors+1 {
		t.Fatalf("got %d errors, want cap %d", len(errs), maxParseErrors+1)
	}
	last := errs[len(errs)-1]
	if !strings.Contains(last.Msg, "too many") {
		t.Errorf("last error should be the cap sentinel, got %v", last)
	}
}
