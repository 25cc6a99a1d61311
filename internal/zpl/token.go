// Package zpl implements the front end for the ZPL subset used by the
// benchmark suite: a lexer, parser and AST for a data parallel array
// language with regions, directions, the @ shift operator
// and full-array reductions.
//
// The subset covers everything the paper's four benchmark programs need:
// config/const/region/direction/var declarations, procedures with scalar
// parameters, whole-array assignment statements under (possibly dynamic)
// region scopes, structured control flow (if / repeat / while / for), and
// reductions (+<<, *<<, max<<, min<<).
package zpl

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	NUMBER
	STRING

	// Operators and punctuation.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	ASSIGN  // :=
	EQ      // =
	NE      // !=
	LT      // <
	LE      // <=
	GT      // >
	GE      // >=
	LPAREN  // (
	RPAREN  // )
	LBRACK  // [
	RBRACK  // ]
	COMMA   // ,
	SEMI    // ;
	COLON   // :
	DOTDOT  // ..
	AT      // @
	REDUCE  // <<

	// Keywords.
	KWPROGRAM
	KWCONFIG
	KWCONST
	KWREGION
	KWDIRECTION
	KWVAR
	KWPROCEDURE
	KWBEGIN
	KWEND
	KWIF
	KWTHEN
	KWELSIF
	KWELSE
	KWREPEAT
	KWUNTIL
	KWFOR
	KWTO
	KWDOWNTO
	KWDO
	KWWHILE
	KWWRITELN
	KWAND
	KWOR
	KWNOT
	KWFLOAT
	KWINTEGER
	KWBOOLEAN
	KWTRUE
	KWFALSE
	KWMAX
	KWMIN
)

var kindNames = map[Kind]string{
	EOF: "end of file", IDENT: "identifier", NUMBER: "number", STRING: "string",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	ASSIGN: ":=", EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	LPAREN: "(", RPAREN: ")", LBRACK: "[", RBRACK: "]",
	COMMA: ",", SEMI: ";", COLON: ":", DOTDOT: "..", AT: "@", REDUCE: "<<",
	KWPROGRAM: "program", KWCONFIG: "config", KWCONST: "constant",
	KWREGION: "region", KWDIRECTION: "direction", KWVAR: "var",
	KWPROCEDURE: "procedure", KWBEGIN: "begin", KWEND: "end",
	KWIF: "if", KWTHEN: "then", KWELSIF: "elsif", KWELSE: "else",
	KWREPEAT: "repeat", KWUNTIL: "until",
	KWFOR: "for", KWTO: "to", KWDOWNTO: "downto", KWDO: "do", KWWHILE: "while",
	KWWRITELN: "writeln", KWAND: "and", KWOR: "or", KWNOT: "not",
	KWFLOAT: "float", KWINTEGER: "integer", KWBOOLEAN: "boolean",
	KWTRUE: "true", KWFALSE: "false", KWMAX: "max", KWMIN: "min",
}

// String returns the display name of the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"program": KWPROGRAM, "config": KWCONFIG, "constant": KWCONST,
	"region": KWREGION, "direction": KWDIRECTION, "var": KWVAR,
	"procedure": KWPROCEDURE, "begin": KWBEGIN, "end": KWEND,
	"if": KWIF, "then": KWTHEN, "elsif": KWELSIF, "else": KWELSE,
	"repeat": KWREPEAT, "until": KWUNTIL,
	"for": KWFOR, "to": KWTO, "downto": KWDOWNTO, "do": KWDO, "while": KWWHILE,
	"writeln": KWWRITELN, "and": KWAND, "or": KWOR, "not": KWNOT,
	"float": KWFLOAT, "double": KWFLOAT, "integer": KWINTEGER, "boolean": KWBOOLEAN,
	"true": KWTRUE, "false": KWFALSE, "max": KWMAX, "min": KWMIN,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Errorf constructs a positioned front-end error.
func Errorf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
