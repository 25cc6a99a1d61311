// Package diag is the shared diagnostics engine of the static-analysis
// layer: positioned findings with stable rule IDs and severities,
// collected per source file and rendered as human-readable text (with
// source excerpts) or machine-readable JSON. The ZPL source linter
// (internal/lint), the communication-plan verifier (internal/comm) and
// the front end's recovered parse errors all report through it, so
// cmd/zplvet presents one uniform finding stream.
package diag

import (
	"fmt"
	"sort"

	"commopt/internal/zpl"
)

// Severity ranks a finding.
type Severity int

// Severities, least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Finding is one positioned diagnostic: a rule identifier, a severity, a
// source location and a message. The zero Pos marks findings without a
// source anchor (e.g. whole-program checks).
type Finding struct {
	Rule     string
	Severity Severity
	File     string
	Pos      zpl.Pos
	Msg      string
}

// String renders the finding on one line: "file:line:col: severity[rule]: msg".
func (f Finding) String() string {
	loc := f.File
	if f.Pos != (zpl.Pos{}) {
		if loc != "" {
			loc += ":"
		}
		loc += f.Pos.String()
	}
	if loc != "" {
		loc += ": "
	}
	return fmt.Sprintf("%s%s[%s]: %s", loc, f.Severity, f.Rule, f.Msg)
}

// List collects the findings for one source file, keeping the source text
// so the text renderer can excerpt the offending line.
type List struct {
	File     string
	Findings []Finding

	lines []string
}

// NewList returns an empty finding list for the named file with the given
// source text (used for excerpts; may be empty).
func NewList(file, src string) *List {
	return &List{File: file, lines: splitLines(src)}
}

// Add appends a finding.
func (l *List) Add(rule string, sev Severity, pos zpl.Pos, format string, args ...any) {
	l.Findings = append(l.Findings, Finding{
		Rule:     rule,
		Severity: sev,
		File:     l.File,
		Pos:      pos,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Extend appends pre-built findings (e.g. from the plan verifier),
// stamping the list's file name on each.
func (l *List) Extend(fs ...Finding) {
	for _, f := range fs {
		f.File = l.File
		l.Findings = append(l.Findings, f)
	}
}

// Sort orders findings by position, then rule, then message, so output is
// deterministic regardless of which rule ran first.
func (l *List) Sort() {
	sort.SliceStable(l.Findings, func(i, j int) bool {
		a, b := l.Findings[i], l.Findings[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// Empty reports whether the list has no findings.
func (l *List) Empty() bool { return len(l.Findings) == 0 }

// HasErrors reports whether any finding has Error severity.
func (l *List) HasErrors() bool {
	for _, f := range l.Findings {
		if f.Severity >= Error {
			return true
		}
	}
	return false
}

// splitLines splits source text into lines without the trailing newline.
func splitLines(src string) []string {
	if src == "" {
		return nil
	}
	var lines []string
	start := 0
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lines = append(lines, src[start:i])
			start = i + 1
		}
	}
	if start < len(src) {
		lines = append(lines, src[start:])
	}
	return lines
}
