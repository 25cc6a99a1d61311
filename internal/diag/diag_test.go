package diag

import (
	"bytes"
	"strings"
	"testing"

	"commopt/internal/zpl"
)

func TestFindingString(t *testing.T) {
	cases := []struct {
		f    Finding
		want string
	}{
		{
			Finding{Rule: "unused-var", Severity: Warning, File: "a.zpl", Pos: zpl.Pos{Line: 3, Col: 7}, Msg: "x unused"},
			`a.zpl:3:7: warning[unused-var]: x unused`,
		},
		{
			Finding{Rule: "plan-missing-transfer", Severity: Error, Msg: "no transfer"},
			`error[plan-missing-transfer]: no transfer`,
		},
		{
			Finding{Rule: "r", Severity: Info, File: "b.zpl", Msg: "note"},
			`b.zpl: info[r]: note`,
		},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSortOrder(t *testing.T) {
	l := NewList("f.zpl", "")
	l.Add("b-rule", Warning, zpl.Pos{Line: 2, Col: 1}, "later line")
	l.Add("z-rule", Warning, zpl.Pos{Line: 1, Col: 5}, "same spot z")
	l.Add("a-rule", Warning, zpl.Pos{Line: 1, Col: 5}, "same spot a")
	l.Add("c-rule", Warning, zpl.Pos{Line: 1, Col: 2}, "earlier col")
	l.Sort()

	var got []string
	for _, f := range l.Findings {
		got = append(got, f.Rule)
	}
	want := []string{"c-rule", "a-rule", "z-rule", "b-rule"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted rules = %v, want %v", got, want)
		}
	}
}

func TestTextExcerpts(t *testing.T) {
	src := "program p;\nvar x : float;\n"
	l := NewList("p.zpl", src)
	l.Add("unused-var", Warning, zpl.Pos{Line: 2, Col: 5}, "x unused")
	var buf bytes.Buffer
	l.Text(&buf, true)

	out := buf.String()
	for _, want := range []string{
		"p.zpl:2:5: warning[unused-var]: x unused",
		"    2 | var x : float;",
		"      |     ^",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Text output missing %q:\n%s", want, out)
		}
	}

	// Without excerpts: one line per finding.
	buf.Reset()
	l.Text(&buf, false)
	if lines := strings.Count(buf.String(), "\n"); lines != 1 {
		t.Errorf("plain Text produced %d lines, want 1:\n%s", lines, buf.String())
	}
}

func TestExtendStampsFile(t *testing.T) {
	l := NewList("f.zpl", "")
	l.Add("r", Warning, zpl.Pos{}, "w")
	l.Extend(Finding{Rule: "r2", Severity: Error, Msg: "boom"})
	if l.Findings[1].File != "f.zpl" {
		t.Fatalf("Extend should stamp the list file, got %q", l.Findings[1].File)
	}
}

func TestWriteJSON(t *testing.T) {
	fs := []Finding{
		{Rule: "unused-var", Severity: Warning, File: "a.zpl", Pos: zpl.Pos{Line: 3, Col: 7}, Msg: "x unused"},
		{Rule: "plan-missing-transfer", Severity: Error, Msg: "no transfer"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"rule": "unused-var"`,
		`"severity": "warning"`,
		`"file": "a.zpl"`,
		`"line": 3`,
		`"col": 7`,
		`"message": "no transfer"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
	// Position-less findings omit file/line/col entirely.
	if strings.Count(out, `"file"`) != 1 {
		t.Errorf("expected exactly one file key:\n%s", out)
	}

	// The empty slice still encodes as a JSON array.
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty findings = %q, want []", buf.String())
	}
}
