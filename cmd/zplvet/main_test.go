package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"file.zpl"}, false},
		{[]string{"-json", "a.zpl", "b.zpl"}, false},
		{[]string{"-bench", "tomcatv"}, false},
		{[]string{"-bench", "all"}, false},
		{[]string{"-rules"}, false},
		{[]string{"-protocol", "file.zpl"}, false},
		{[]string{}, true},                               // no inputs
		{[]string{"-nonsense"}, true},                    // unknown flag
		{[]string{"-cost", "-bench", "simple"}, true},    // the forecast is zplc -predict's
		{[]string{"-machine", "paragon", "a.zpl"}, true}, // so are its bindings
		{[]string{"-lib", "csend", "a.zpl"}, true},
		{[]string{"-protocol", "-cost", "a.zpl"}, true},
		{[]string{"-cost", "-json", "a.zpl"}, true},
		{[]string{"-protocol", "-procs", "0", "a.zpl"}, true},
		{[]string{"-protocol", "-procs", "65537", "a.zpl"}, true},
	}
	for _, c := range cases {
		_, err := parseArgs(c.args)
		if gotErr := err != nil; gotErr != c.wantErr {
			t.Errorf("parseArgs(%v) error = %v, want error %v", c.args, err, c.wantErr)
		}
	}
}

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.zpl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSrc = `program clean;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] float;
var total : float;
procedure main();
begin
  [R] B := 1.0;
  [Int] A := B@east;
  [R] total := +<< A;
  writeln(total);
end;
`

const dirtySrc = `program dirty;
config var n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B : [R] float;
var unread : float;
procedure main();
var total : float;
begin
  [R] B := 1.0;
  [R] A := B@east;
  unread := 2.0;
  [R] total := +<< A;
  writeln(total);
end;
`

func TestRunCleanFile(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{writeTemp(t, cleanSrc)})
	if err != nil || code != 0 {
		t.Fatalf("clean file: code=%d err=%v output:\n%s", code, err, buf.String())
	}
	if buf.Len() != 0 {
		t.Errorf("clean file produced output:\n%s", buf.String())
	}
}

func TestRunDirtyFileExitsNonzero(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{writeTemp(t, dirtySrc)})
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("dirty file: code=%d, want 1", code)
	}
	out := buf.String()
	for _, want := range []string{"at-outside-region", "write-only-var"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s:\n%s", want, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-json", writeTemp(t, dirtySrc)})
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	out := buf.String()
	if !strings.HasPrefix(strings.TrimSpace(out), "[") {
		t.Errorf("JSON output should be an array:\n%s", out)
	}
	if !strings.Contains(out, `"rule": "write-only-var"`) {
		t.Errorf("JSON missing rule field:\n%s", out)
	}
}

func TestRunBenchmarksClean(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-bench", "all"})
	if err != nil || code != 0 {
		t.Fatalf("bundled benchmarks not clean: code=%d err=%v output:\n%s", code, err, buf.String())
	}
}

// The usage-error exit code is 2, distinct from "findings reported".
func TestRunUsageErrorExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "-cost", "x.zpl"},
		{"-cost", "-json", "x.zpl"},
		{"-cost", "-machine", "vax", "-bench", "simple"},
		{"/nonexistent/file.zpl"},
	} {
		var buf bytes.Buffer
		code, err := run(&buf, args)
		if code != 2 || err == nil {
			t.Errorf("run(%v) = code %d, err %v; want code 2 and an error", args, code, err)
		}
	}
}

func TestRunProtocolCleanBenchmarks(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-protocol", "-procs", "4", "-bench", "all"})
	if err != nil || code != 0 {
		t.Fatalf("protocol check on bundled benchmarks: code=%d err=%v output:\n%s", code, err, buf.String())
	}
	if buf.Len() != 0 {
		t.Errorf("clean protocol run produced output:\n%s", buf.String())
	}
}

func TestRunProtocolJSON(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-protocol", "-procs", "4", "-json", writeTemp(t, cleanSrc)})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("clean protocol JSON = %q, want empty array", got)
	}
}

func TestRunRules(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-rules"})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	out := buf.String()
	for _, want := range []string{"unused-var", "plan-missing-transfer", "parse-error", "plan-call-set", "plan-bound-write", "proto-pair-asymmetry"} {
		if !strings.Contains(out, want) {
			t.Errorf("rule listing missing %s:\n%s", want, out)
		}
	}
}

// A config initializer that reads a variable is a sema error, the one
// zplrun and zplc report, not a lint warning beside a clean plan check.
func TestRunConfigReadingVariable(t *testing.T) {
	const src = `program cfgvar;
var k : integer;
config var n : integer = 8 + k;
region R = [1..n, 1..n];
var A : [R] float;
procedure main();
begin
  [R] A := 1.0;
end;
`
	var buf bytes.Buffer
	code, err := run(&buf, []string{writeTemp(t, src)})
	if err != nil || code != 1 {
		t.Fatalf("code=%d err=%v, want 1 and no error", code, err)
	}
	if want := `3:1: error[sema-error]: config "n" initializer reads "k"`; !strings.Contains(buf.String(), want) {
		t.Errorf("output missing %q:\n%s", want, buf.String())
	}
}

// Bad input of every kind gets the documented exit code — 1 for a file
// the analysis rejects, 2 for a bad command line — and never a Go stack
// trace.
func TestRunBadInput(t *testing.T) {
	dir := t.TempDir()
	file := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := file("good.zpl", cleanSrc)
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"empty file", []string{file("empty.zpl", "")}, 1},
		{"1 MB of [", []string{file("open.zpl", strings.Repeat("[", 1<<20))}, 1},
		{"two syntax errors", []string{file("bad.zpl", "program p;\nbegin\n  A := ;\n  A := 1.0 +;\nend;\n")}, 1},
		{"-procs 0", []string{"-protocol", "-procs", "0", good}, 2},
		{"-procs 65537", []string{"-protocol", "-procs", "65537", good}, 2},
		{"unknown machine", []string{"-machine", "nope", good}, 2},
		{"unknown library", []string{"-lib", "nope", good}, 2},
		{"butterfly on 6", []string{"-procs", "6", "-collective", "butterfly", good}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(&out, c.args)
			if code != c.code {
				t.Errorf("exit code %d (err %v), want %d", code, err, c.code)
			}
			if strings.Contains(fmt.Sprint(err), "goroutine ") || strings.Contains(out.String(), "goroutine ") {
				t.Errorf("stack trace in the report: %v", err)
			}
		})
	}
}
