package zpl

import (
	"fmt"
	"strings"
)

// Print renders a program back to parseable ZPL source text: the
// round-trip tests parse what it prints.
func Print(p *Program) string {
	var b strings.Builder
	pr := &printer{b: &b}
	pr.program(p)
	return b.String()
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) program(prog *Program) {
	p.line("program %s;", prog.Name)
	p.line("")
	for _, d := range prog.Decls {
		p.decl(d)
	}
	for _, proc := range prog.Procs {
		p.line("")
		p.proc(proc)
	}
}

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *ConfigDecl:
		p.line("config var %s : %s = %s;", strings.Join(d.Names, ", "), d.Type, ExprString(d.Init))
	case *ConstDecl:
		p.line("constant %s : %s = %s;", d.Name, d.Type, ExprString(d.Value))
	case *RegionDecl:
		p.line("region %s = %s;", d.Name, rangesString(d.Ranges))
	case *DirectionDecl:
		comps := make([]string, len(d.Comps))
		for i, c := range d.Comps {
			comps[i] = ExprString(c)
		}
		p.line("direction %s = [%s];", d.Name, strings.Join(comps, ", "))
	case *VarDecl:
		if d.Region != "" {
			p.line("var %s : [%s] %s;", strings.Join(d.Names, ", "), d.Region, d.Type)
		} else {
			p.line("var %s : %s;", strings.Join(d.Names, ", "), d.Type)
		}
	default:
		panic(fmt.Sprintf("zpl: unknown decl %T", d))
	}
}

func rangesString(rs []Range) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s..%s", ExprString(r.Lo), ExprString(r.Hi))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (p *printer) proc(proc *ProcDecl) {
	params := make([]string, len(proc.Params))
	for i, pa := range proc.Params {
		params[i] = fmt.Sprintf("%s : %s", pa.Name, pa.Type)
	}
	p.line("procedure %s(%s);", proc.Name, strings.Join(params, "; "))
	for _, l := range proc.Locals {
		p.indent++
		if l.Region != "" {
			p.line("var %s : [%s] %s;", strings.Join(l.Names, ", "), l.Region, l.Type)
		} else {
			p.line("var %s : %s;", strings.Join(l.Names, ", "), l.Type)
		}
		p.indent--
	}
	p.line("begin")
	p.indent++
	p.stmts(proc.Body)
	p.indent--
	p.line("end;")
}

func (p *printer) stmts(body []Stmt) {
	for _, s := range body {
		p.stmt(s)
	}
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *ScopeStmt:
		ref := ""
		if s.Region.Name != "" {
			ref = "[" + s.Region.Name + "]"
		} else {
			ref = rangesString(s.Region.Ranges)
		}
		// Render the scope prefix on its own line then the body indented, so
		// nesting remains readable; the grammar does not care.
		p.line("%s", ref)
		p.indent++
		p.stmt(s.Body)
		p.indent--
	case *CompoundStmt:
		p.line("begin")
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.line("end;")
	case *AssignStmt:
		p.line("%s := %s;", s.LHS, ExprString(s.RHS))
	case *IfStmt:
		p.line("if %s then", ExprString(s.Cond))
		p.indent++
		p.stmts(s.Then)
		p.indent--
		for _, arm := range s.Elifs {
			p.line("elsif %s then", ExprString(arm.Cond))
			p.indent++
			p.stmts(arm.Body)
			p.indent--
		}
		if s.Else != nil {
			p.line("else")
			p.indent++
			p.stmts(s.Else)
			p.indent--
		}
		p.line("end;")
	case *RepeatStmt:
		p.line("repeat")
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.line("until %s;", ExprString(s.Until))
	case *WhileStmt:
		p.line("while %s do", ExprString(s.Cond))
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.line("end;")
	case *ForStmt:
		dir := "to"
		if s.Down {
			dir = "downto"
		}
		p.line("for %s := %s %s %s do", s.Var, ExprString(s.Lo), dir, ExprString(s.Hi))
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.line("end;")
	case *CallStmt:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = ExprString(a)
		}
		p.line("%s(%s);", s.Name, strings.Join(args, ", "))
	case *WriteStmt:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = ExprString(a)
		}
		p.line("writeln(%s);", strings.Join(args, ", "))
	default:
		panic(fmt.Sprintf("zpl: unknown stmt %T", s))
	}
}

// ExprString renders an expression in source syntax with full
// parenthesization of nested operators (always reparseable).
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *NumLit:
		return e.Text
	case *BoolLit:
		if e.Value {
			return "true"
		}
		return "false"
	case *StrLit:
		return "\"" + e.Value + "\""
	case *Ident:
		return e.Name
	case *AtExpr:
		if e.Dir.Name != "" {
			return e.Array + "@" + e.Dir.Name
		}
		comps := make([]string, len(e.Dir.Comps))
		for i, c := range e.Dir.Comps {
			comps[i] = ExprString(c)
		}
		return e.Array + "@[" + strings.Join(comps, ", ") + "]"
	case *UnaryExpr:
		if e.Op == KWNOT {
			return "(not " + ExprString(e.X) + ")"
		}
		return "(-" + ExprString(e.X) + ")"
	case *BinaryExpr:
		return "(" + ExprString(e.X) + " " + e.Op.String() + " " + ExprString(e.Y) + ")"
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return e.Name + "(" + strings.Join(args, ", ") + ")"
	case *ReduceExpr:
		return "(" + e.Op + "<< " + ExprString(e.X) + ")"
	default:
		panic(fmt.Sprintf("zpl: unknown expr %T", e))
	}
}
