package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"commopt/internal/experiments"
	"commopt/internal/grid"
)

func quickRunner() *experiments.Runner {
	r := experiments.NewRunner(64)
	r.Quick = true
	return r
}

// Every -exp key reaches its experiment and renders something, at quick
// sizes on one shared Runner. An experiment that enforces a gate of its own
// (critpath: comm-bound path time shrinks across the pvm ladder) reports
// it through Render's error, and rdma renders the same bytes from a second
// Runner. collective and scalinglaw are left to internal/experiments
// (TestCollectiveTable, TestScalingLaw): their default processor lists go
// to 4096 and cost 12 s each.
func TestRunEveryExperiment(t *testing.T) {
	r := quickRunner()
	for _, exp := range experiments.Keys() {
		if exp == "collective" || exp == "scalinglaw" {
			continue
		}
		var out bytes.Buffer
		if err := experiments.Render(&out, r, exp); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
		if out.Len() == 0 {
			t.Errorf("-exp %s: no output", exp)
		}
	}
	// The ladder's cells are cached on r by now; a fresh Runner has to
	// reach the same bytes.
	var cached, fresh bytes.Buffer
	if err := experiments.Render(&cached, r, "rdma"); err != nil {
		t.Fatal(err)
	}
	if err := experiments.Render(&fresh, quickRunner(), "rdma"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached.Bytes(), fresh.Bytes()) {
		t.Errorf("-exp rdma: two runners rendered different bytes\n%s--- vs ---\n%s", &cached, &fresh)
	}
	var out bytes.Buffer
	err := experiments.Render(&out, r, "x")
	if err == nil || err.Error() != `unknown experiment "x"` || out.Len() != 0 {
		t.Errorf(`-exp x: err %v, %d bytes of output; want unknown experiment "x" and none`, err, out.Len())
	}
}

// The committed results files are the product's output at full size: all
// and rdma, rendered on one Runner (the T3D cells are shared), must equal
// results_full.txt and results_rdma.txt byte for byte.
func TestResultsFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size suite")
	}
	r := experiments.NewRunner(64)
	for _, c := range []struct{ exp, file string }{
		{"all", "results_full.txt"},
		{"rdma", "results_rdma.txt"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", c.file))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := experiments.Render(&out, r, c.exp); err != nil {
			t.Fatalf("-exp %s: %v", c.exp, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-exp %s differs from %s:\n%s", c.exp, c.file, out.String())
		}
	}
}

// fullDisk is stdout on a full disk: every write fails.
type fullDisk struct{}

var errFull = errors.New("no space left on device")

func (fullDisk) Write([]byte) (int, error) { return 0, errFull }

// An experiment whose output could not be written fails the run, so main
// exits 1 instead of leaving a truncated results file behind a success.
func TestRunReportsFailedWrite(t *testing.T) {
	if err := run(fullDisk{}, options{exp: "table1", procs: 4, quick: true}); !errors.Is(err, errFull) {
		t.Errorf("run to a full disk: err %v, want %v", err, errFull)
	}
}

// parseArgs reads every flag into options and refuses, before any cell
// runs, a partition the block distribution cannot hold, a negative worker
// count, an unknown experiment and an unknown flag.
func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-exp", "fig10a", "-procs", "16", "-quick", "-workers", "3",
		"-trace-dir", "tr", "-cpuprofile", "c.prof", "-memprofile", "m.prof"})
	if err != nil {
		t.Fatal(err)
	}
	want := options{exp: "fig10a", procs: 16, quick: true, workers: 3, traceDir: "tr", cpuprofile: "c.prof", memprofile: "m.prof"}
	if o != want {
		t.Errorf("parseArgs = %+v, want %+v", o, want)
	}
	if o, err := parseArgs(nil); err != nil || o.exp != "all" || o.procs != 64 {
		t.Errorf("parseArgs() = %+v, %v; want all on 64 processors", o, err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-procs", "-4"}, "-procs: grid: processor count -4 < 1"},
		{[]string{"-procs", "0"}, "-procs: grid: processor count 0 < 1"},
		{[]string{"-procs", "100000"}, "-procs: grid: processor count 100000 exceeds the 65536-processor limit of the block distribution"},
		{[]string{"-workers", "-3"}, "-workers: -3 < 0"},
		{[]string{"-exp", "x"}, `unknown experiment "x"`},
		{[]string{"-exp", ""}, `unknown experiment ""`},
		{[]string{"-wat"}, "flag provided but not defined: -wat"},
		{[]string{"-procs", "many"}, `invalid value "many" for flag -procs: parse error`},
	} {
		if _, err := parseArgs(c.args); err == nil || err.Error() != c.want {
			t.Errorf("parseArgs(%q) error %v, want %s", c.args, err, c.want)
		}
	}
}

// FuzzParseArgs holds parseArgs to any command line: it returns an error,
// or options that name an experiment on a partition the block
// distribution can hold. go test runs the seeds; go test -fuzz
// FuzzParseArgs grows more.
func FuzzParseArgs(f *testing.F) {
	for _, s := range []string{"", "-quick", "-exp fig10a -procs 16", "-procs -4", "-procs 0",
		"-procs 100000", "-exp x", "-workers 3 -trace-dir t", "-workers -3", "-exp=rdma -procs=4096"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseArgs(strings.Fields(line))
		if err != nil {
			return
		}
		if _, err := grid.MeshFor(o.procs); err != nil {
			t.Errorf("%q: accepted -procs %d: %v", line, o.procs, err)
		}
		if !slices.Contains(experiments.Keys(), o.exp) {
			t.Errorf("%q: accepted -exp %q", line, o.exp)
		}
		if o.workers < 0 {
			t.Errorf("%q: accepted -workers %d", line, o.workers)
		}
	})
}
