package main

import (
	"bytes"
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
		{[]string{"-cost", "-bench", "simple"}, false},
		{[]string{"-cost", "-machine", "paragon", "-lib", "csend", "file.zpl"}, false},
		{[]string{}, true},                              // no inputs
		{[]string{"-nonsense"}, true},                   // unknown flag
		{[]string{"-protocol", "-cost", "a.zpl"}, true}, // mutually exclusive
		{[]string{"-cost", "-json", "a.zpl"}, true},     // tables have no JSON form
		{[]string{"-protocol", "-procs", "0", "a.zpl"}, true},
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

func TestRunCost(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, []string{"-cost", "-procs", "4", writeTemp(t, cleanSrc)})
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v output:\n%s", code, err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"predicted communication", "baseline", "pl+hoist", "per-transfer breakdown", "B@[0,1,0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost output missing %q:\n%s", want, out)
		}
	}
}

// A program whose loop bounds depend on computed data has no closed-form
// prediction; -cost says so and still exits 0 (it is not a finding).
func TestRunCostNotStatic(t *testing.T) {
	const src = `program dyn;
config var n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B : [R] float;
var err : float;
procedure main();
begin
  [R] B := 1.0;
  repeat
    [R] A := B@east;
    [R] err := +<< A;
  until err < 0.5;
end;
`
	var buf bytes.Buffer
	code, errRun := run(&buf, []string{"-cost", "-procs", "4", writeTemp(t, src)})
	if errRun != nil || code != 0 {
		t.Fatalf("code=%d err=%v output:\n%s", code, errRun, buf.String())
	}
	if !strings.Contains(buf.String(), "not statically predictable") {
		t.Errorf("missing not-static note:\n%s", buf.String())
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
