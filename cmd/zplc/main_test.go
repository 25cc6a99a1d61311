package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/grid"
)

func TestParseArgsValid(t *testing.T) {
	cases := []struct {
		args []string
		want config
	}{
		{[]string{"prog.zpl"}, config{level: "pl", file: "prog.zpl"}},
		{[]string{"-O", "rr", "-counts", "prog.zpl"}, config{level: "rr", counts: true, file: "prog.zpl"}},
		{[]string{"-bench", "tomcatv", "-explain"}, config{level: "pl", bench: "tomcatv", explain: true}},
		{[]string{"-bench", "swm", "-dump", "-inline", "-O", "pl+hoist"},
			config{level: "pl+hoist", bench: "swm", dump: true, inline: true}},
	}
	for _, c := range cases {
		got, err := parseArgs(c.args)
		if err != nil {
			t.Errorf("parseArgs(%v): %v", c.args, err)
			continue
		}
		if got.level != c.want.level || got.dump != c.want.dump || got.counts != c.want.counts ||
			got.explain != c.want.explain ||
			got.bench != c.want.bench || got.inline != c.want.inline ||
			got.file != c.want.file {
			t.Errorf("parseArgs(%v) = %+v, want %+v", c.args, *got, c.want)
		}
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{}, "usage"},
		{[]string{"a.zpl", "b.zpl"}, "usage"},
		{[]string{"-bench", "tomcatv", "extra.zpl"}, "usage"},
		{[]string{"-wat", "prog.zpl"}, "not defined"},
		{[]string{"-O", "bogus", "prog.zpl"}, "unknown optimization level"},
		{[]string{"-predict", "-procs", "0", "prog.zpl"}, "-procs: grid: processor count 0 < 1"},
		{[]string{"-predict", "-procs", "-3", "prog.zpl"}, "-procs: grid: processor count -3 < 1"},
		{[]string{"-predict", "-procs", "100000", "prog.zpl"}, "-procs: grid: processor count 100000 exceeds"},
	}
	for _, c := range cases {
		_, err := parseArgs(c.args)
		if err == nil {
			t.Errorf("parseArgs(%v) accepted invalid arguments", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseArgs(%v) error %q does not mention %q", c.args, err, c.wantErr)
		}
	}
}

// TestRunUsageErrorExitCode: a command-line error exits 2, a run that
// fails exits 1, and a request for usage exits 0, as zplrun and zplvet do.
func TestRunUsageErrorExitCode(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-wat", "x.zpl"}, 2},
		{[]string{"-O", "bogus", "x.zpl"}, 2},
		{[]string{"-bench", "simple", "-predict", "-procs", "100000"}, 2},
		{[]string{}, 2},
		{[]string{"/nonexistent/file.zpl"}, 1},
		{[]string{"-bench", "simple", "-predict", "-machine", "vax"}, 1},
		{[]string{"-h"}, 0},
	} {
		var buf bytes.Buffer
		code, err := exitCode(&buf, c.args)
		if code != c.code || (err == nil) != (c.code == 0) {
			t.Errorf("exitCode(%v) = code %d, err %v; want code %d", c.args, code, err, c.code)
		}
	}
}

// FuzzParseArgs holds parseArgs to any command line: it returns an error,
// or a configuration with a known level, at least one processor and
// exactly one input. go test runs the seeds; go test -fuzz FuzzParseArgs
// grows more.
func FuzzParseArgs(f *testing.F) {
	for _, s := range []string{"", "prog.zpl", "a.zpl b.zpl", "-bench tomcatv extra.zpl", "-wat prog.zpl",
		"-O bogus prog.zpl", "-predict -procs 0 prog.zpl", "-predict -procs -3 prog.zpl",
		"-predict -procs 100000 prog.zpl", "-O rr -counts prog.zpl", "-bench tomcatv -explain",
		"-bench swm -dump -inline -O pl+hoist", "-bench simple -predict -procs 64 -lib shmem"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cfg, err := parseArgs(strings.Fields(line))
		if err != nil {
			return
		}
		if _, err := comm.OptionsByName(cfg.level); err != nil {
			t.Errorf("%q: accepted -O %q", line, cfg.level)
		}
		if _, err := grid.MeshFor(cfg.procs); err != nil {
			t.Errorf("%q: accepted -procs %d", line, cfg.procs)
		}
		if (cfg.bench == "") == (cfg.file == "") {
			t.Errorf("%q: accepted bench %q with file %q", line, cfg.bench, cfg.file)
		}
	})
}

// -counts prints one row per level of the -O table, pl+hoist included,
// and -O pl+hoist reports how many transfers it hoisted.
func TestRunCountsEveryLevel(t *testing.T) {
	runArgs := func(args ...string) string {
		t.Helper()
		cfg, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := runArgs("-bench", "simple", "-counts")
	for _, lv := range comm.Levels() {
		if n := strings.Count(out, "\n  "+lv.Name+" "); n != 1 {
			t.Errorf("-counts has %d rows for %s, want 1:\n%s", n, lv.Name, out)
		}
	}
	out = runArgs("-bench", "simple", "-O", "pl+hoist")
	if !regexp.MustCompile(`optimization pl: \d+ static communications \([1-9]\d* hoisted to loop preheaders\)`).MatchString(out) {
		t.Errorf("-O pl+hoist does not report its hoisted transfers:\n%s", out)
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

// A file with several syntax errors reports them all, not just the first.
func TestRunReportsAllParseErrors(t *testing.T) {
	const src = `program broken;
region R = [1..8];
var A : [R] float;
procedure main();
begin
  A := ;
  A := 1.0 +;
  [R] A := 2.0;
end;
`
	cfg, err := parseArgs([]string{writeTemp(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run(&buf, cfg)
	if err == nil {
		t.Fatal("run accepted a broken program")
	}
	msg := err.Error()
	if !strings.Contains(msg, ":6:") || !strings.Contains(msg, ":7:") {
		t.Errorf("error should name both broken lines, got:\n%s", msg)
	}
}

func TestRunPredict(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseArgs([]string{"-bench", "simple", "-predict", "-procs", "4", "-lib", "shmem"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"predicted communication on t3d/shmem, 4 procs", "per-transfer forecast", "critical-path comm overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q:\n%s", want, out)
		}
	}
}

// -machine takes every machine.ByName model, the rdma cluster included.
func TestRunPredictRDMA(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseArgs([]string{"-bench", "tomcatv", "-predict", "-procs", "4", "-machine", "rdma", "-lib", "verbs"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if want := "predicted communication on rdma/verbs, 4 procs"; !strings.Contains(buf.String(), want) {
		t.Errorf("predict output missing %q:\n%s", want, buf.String())
	}
}

func TestRunPredictUnknownMachine(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseArgs([]string{"-bench", "simple", "-predict", "-machine", "vax"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("run with -machine vax: err = %v, want unknown machine", err)
	}
}

// -predict prints one summary row per level, the pl+hoist extension
// included, beside the per-transfer forecast of the -O level.
func TestRunPredictLevels(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseArgs([]string{"-predict", "-procs", "4", writeTemp(t, cleanSrc)})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"predicted communication", "  baseline ", "  pl+hoist ", "per-transfer forecast", "B@[0,1,0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q:\n%s", want, out)
		}
	}
}

// The per-level summary takes every machine.ByName model, the rdma
// cluster included.
func TestRunPredictLevelsRDMA(t *testing.T) {
	var buf bytes.Buffer
	cfg, err := parseArgs([]string{"-predict", "-procs", "4", "-machine", "rdma", "-lib", "verbs", "-bench", "tomcatv"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"predicted communication on rdma/verbs, 4 procs", "predicted communication by optimization level", "  pl-maxlat ", "  pl+hoist "} {
		if !strings.Contains(out, want) {
			t.Errorf("predict output missing %q:\n%s", want, out)
		}
	}
}

// A program whose loop bounds depend on computed data has no closed-form
// prediction; -predict says so and still succeeds.
func TestRunPredictNotStatic(t *testing.T) {
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
	cfg, err := parseArgs([]string{"-predict", "-procs", "4", writeTemp(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "not statically predictable") {
		t.Errorf("missing not-static note:\n%s", buf.String())
	}
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

// twoErrors has two syntax errors; zplrun reports them in the same words.
const twoErrors = `program broken;
region R = [1..8];
var A : [R] float;
procedure main();
begin
  A := ;
  A := 1.0 +;
  [R] A := 2.0;
end;
`

// Bad input of every kind fails with one error, writes nothing to stdout
// (a bad -predict binding used to fail after the plan was printed) and
// never surfaces a Go stack trace.
func TestRunBadInput(t *testing.T) {
	dir := t.TempDir()
	file := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bad := file("bad.zpl", twoErrors)
	for _, c := range []struct {
		name string
		args []string
		want string // the whole error, when set
	}{
		{"empty file", []string{file("empty.zpl", "")}, ""},
		{"1 MB of [", []string{file("open.zpl", strings.Repeat("[", 1<<20))}, ""},
		{"two syntax errors", []string{bad}, bad + `:6:8: expected expression, found ; ";"` + "\n" +
			bad + `:7:13: expected expression, found ; ";"`},
		{"-procs 0", []string{"-predict", "-procs", "0", "-bench", "simple"}, ""},
		{"-procs 65537", []string{"-predict", "-procs", "65537", "-bench", "simple"}, ""},
		{"unknown machine", []string{"-predict", "-machine", "nope", "-bench", "simple"}, ""},
		{"unknown library", []string{"-predict", "-lib", "nope", "-bench", "simple"}, ""},
		{"butterfly on 6", []string{"-predict", "-procs", "6", "-collective", "butterfly", "-bench", "simple"}, ""},
		{"unknown collective", []string{"-predict", "-collective", "ring", "-bench", "simple"}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			cfg, err := parseArgs(c.args)
			if err == nil {
				err = run(&out, cfg)
			}
			switch {
			case err == nil:
				t.Fatalf("accepted; output:\n%s", out.String())
			case out.Len() != 0:
				t.Errorf("wrote %d bytes to stdout before failing", out.Len())
			case strings.Contains(err.Error(), "goroutine "):
				t.Errorf("error carries a stack trace: %v", err)
			case c.want != "" && err.Error() != c.want:
				t.Errorf("error\n%v\nwant\n%s", err, c.want)
			}
		})
	}
}
