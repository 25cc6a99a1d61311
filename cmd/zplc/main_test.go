package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseArgsValid(t *testing.T) {
	cases := []struct {
		args []string
		want config
	}{
		{[]string{"prog.zpl"}, config{level: "pl", file: "prog.zpl"}},
		{[]string{"-O", "rr", "-counts", "prog.zpl"}, config{level: "rr", counts: true, file: "prog.zpl"}},
		{[]string{"-bench", "tomcatv", "-explain"}, config{level: "pl", bench: "tomcatv", explain: true}},
		{[]string{"-bench", "swm", "-dump", "-inline", "-hoist"},
			config{level: "pl", bench: "swm", dump: true, inline: true, hoist: true}},
		{[]string{"-passes", "emit, rr ,pl", "-bench", "sp"},
			config{level: "pl", bench: "sp", passes: []string{"emit", "rr", "pl"}}},
		{[]string{"-vet", "-bench", "simple"}, config{level: "pl", bench: "simple", vet: true}},
	}
	for _, c := range cases {
		got, err := parseArgs(c.args)
		if err != nil {
			t.Errorf("parseArgs(%v): %v", c.args, err)
			continue
		}
		if got.level != c.want.level || got.dump != c.want.dump || got.counts != c.want.counts ||
			got.explain != c.want.explain || got.vet != c.want.vet ||
			got.bench != c.want.bench || got.inline != c.want.inline ||
			got.hoist != c.want.hoist || got.file != c.want.file ||
			strings.Join(got.passes, ",") != strings.Join(c.want.passes, ",") {
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
		{[]string{"-predict", "-procs", "0", "prog.zpl"}, "at least one processor"},
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

// Bad pass lists parse at the flag layer but are rejected when the
// pipeline is constructed, with an error naming the problem.
func TestPipelineForRejectsBadPassFlag(t *testing.T) {
	cases := []struct {
		passes  string
		wantErr string
	}{
		{"rr,cc", "emit"},
		{"emit,frobnicate", "frobnicate"},
		{"emit,hoist,pl", "hoist"},
	}
	for _, c := range cases {
		cfg, err := parseArgs([]string{"-passes", c.passes, "-bench", "tomcatv"})
		if err != nil {
			t.Fatalf("parseArgs(-passes %s): %v", c.passes, err)
		}
		if _, err := pipelineFor(cfg); err == nil {
			t.Errorf("pipelineFor accepted -passes %s", c.passes)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("-passes %s error %q does not mention %q", c.passes, err, c.wantErr)
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

// -vet on a clean benchmark reports nothing and the normal compilation
// output follows.
func TestRunVetCleanBench(t *testing.T) {
	cfg, err := parseArgs([]string{"-vet", "-bench", "simple"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "program simple") {
		t.Errorf("normal output missing after clean vet:\n%s", buf.String())
	}
}

// -vet on a program with findings prints them and fails the run.
func TestRunVetDirtyFile(t *testing.T) {
	const src = `program dirty;
config var n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var unread : float;
procedure main();
begin
  [R] A := 1.0;
  unread := 2.0;
  writeln(A);
end;
`
	cfg, err := parseArgs([]string{"-vet", writeTemp(t, src)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run(&buf, cfg)
	if err == nil || !strings.Contains(err.Error(), "vet reported") {
		t.Fatalf("run error = %v, want vet failure; output:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "write-only-var") {
		t.Errorf("findings missing from output:\n%s", buf.String())
	}
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

func TestOptionsByName(t *testing.T) {
	want := map[string]string{
		"baseline": "baseline", "rr": "rr", "cc": "cc", "pl": "pl",
		"pl-maxlat": "pl/max-latency",
	}
	for name, s := range want {
		opts, err := OptionsByName(name)
		if err != nil {
			t.Errorf("OptionsByName(%q): %v", name, err)
		}
		if opts.String() != s {
			t.Errorf("OptionsByName(%q).String() = %q, want %q", name, opts.String(), s)
		}
	}
	if _, err := OptionsByName("o3"); err == nil {
		t.Error("OptionsByName accepted an unknown level")
	}
}
