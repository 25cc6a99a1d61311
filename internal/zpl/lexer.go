package zpl

import (
	"strings"
	"unicode"
)

// Lexer tokenizes ZPL source text. Comments run from "--" to end of line.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or a token of kind EOF at end of input.
// Lexical errors are reported as an error return.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	pos := Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[strings.ToLower(text)]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil

	case isDigit(c), c == '.' && isDigit(l.peek2()):
		return l.lexNumber(pos)

	case c == '"':
		l.advance()
		start := l.off
		for l.off < len(l.src) && l.peek() != '"' && l.peek() != '\n' {
			l.advance()
		}
		if l.off >= len(l.src) || l.peek() != '"' {
			return Token{}, Errorf(pos, "unterminated string literal")
		}
		text := l.src[start:l.off]
		l.advance()
		return Token{Kind: STRING, Text: text, Pos: pos}, nil
	}

	// Operators.
	two := func(k Kind, text string) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: k, Text: text, Pos: pos}, nil
	}
	one := func(k Kind) (Token, error) {
		l.advance()
		return Token{Kind: k, Text: string(c), Pos: pos}, nil
	}
	switch c {
	case '+':
		return one(PLUS)
	case '-':
		return one(MINUS)
	case '*':
		return one(STAR)
	case '/':
		return one(SLASH)
	case '%':
		return one(PERCENT)
	case '(':
		return one(LPAREN)
	case ')':
		return one(RPAREN)
	case '[':
		return one(LBRACK)
	case ']':
		return one(RBRACK)
	case ',':
		return one(COMMA)
	case ';':
		return one(SEMI)
	case '@':
		return one(AT)
	case '=':
		return one(EQ)
	case ':':
		if l.peek2() == '=' {
			return two(ASSIGN, ":=")
		}
		return one(COLON)
	case '.':
		if l.peek2() == '.' {
			return two(DOTDOT, "..")
		}
		return Token{}, Errorf(pos, "unexpected character %q", c)
	case '<':
		switch l.peek2() {
		case '=':
			return two(LE, "<=")
		case '<':
			return two(REDUCE, "<<")
		}
		return one(LT)
	case '>':
		if l.peek2() == '=' {
			return two(GE, ">=")
		}
		return one(GT)
	case '!':
		if l.peek2() == '=' {
			return two(NE, "!=")
		}
		return Token{}, Errorf(pos, "unexpected character %q", c)
	}
	return Token{}, Errorf(pos, "unexpected character %q", c)
}

func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	// A '.' begins a fraction only if not the ".." range operator.
	if l.peek() == '.' && l.peek2() != '.' {
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !isDigit(l.peek()) {
			// Not an exponent after all (e.g. identifier following); rewind
			// is impossible with our line tracking, so treat as error: ZPL
			// numbers may not be directly followed by letters.
			return Token{}, Errorf(pos, "malformed number exponent")
		}
		_ = save
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	return Token{Kind: NUMBER, Text: l.src[start:l.off], Pos: pos}, nil
}
