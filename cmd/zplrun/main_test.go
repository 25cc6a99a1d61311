package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commopt/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

const laplaceSrc = `program tiny;
config var n : integer = 8;
config var iters : integer = 2;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var U, V : [R] float;
var resid : float;
procedure main();
begin
  [R] U := Index1 + Index2;
  for t := 1 to iters do
    [Int] begin
      V := 0.25 * (U@east + U@west + U@north + U@south);
      resid := max<< abs(V - U);
      U := V;
    end;
  end;
  writeln("resid = ", resid);
end;
`

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.zpl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runArgs(t *testing.T, machName, lib string, procs int, level, bench string, cfg configFlags, args []string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(&buf, options{mach: machName, lib: lib, procs: procs, level: level, bench: bench, cfg: cfg, args: args})
	return buf.String(), err
}

// runWith executes run with a fully specified option set.
func runWith(t *testing.T, o options) (string, error) {
	t.Helper()
	if o.cfg == nil {
		o.cfg = configFlags{}
	}
	var buf bytes.Buffer
	err := run(&buf, o)
	return buf.String(), err
}

// A small program runs end to end and the report carries the program's
// writeln output plus every statistics line.
func TestRunSmallExample(t *testing.T) {
	out, err := runArgs(t, "t3d", "pvm", 4, "pl", "", configFlags{}, []string{writeTemp(t, laplaceSrc)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"resid = ",
		"-- tiny on 4-node Cray T3D (pvm), optimization pl",
		"-- execution time",
		"-- communications",
		"-- messages",
		"-- critical path",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The simulated answer does not depend on the partition size; only the
// statistics lines may change.
func TestRunProcsInvariantOutput(t *testing.T) {
	answer := func(procs int) string {
		t.Helper()
		out, err := runArgs(t, "t3d", "pvm", procs, "pl", "", configFlags{}, []string{writeTemp(t, laplaceSrc)})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		line, _, ok := strings.Cut(out, "\n")
		if !ok || !strings.HasPrefix(line, "resid = ") {
			t.Fatalf("procs=%d: missing program output line:\n%s", procs, out)
		}
		if !strings.Contains(out, "-- tiny on") {
			t.Fatalf("procs=%d: missing report:\n%s", procs, out)
		}
		return line
	}
	base := answer(1)
	for _, procs := range []int{4, 16} {
		if got := answer(procs); got != base {
			t.Errorf("procs=%d: %q differs from 1-processor answer %q", procs, got, base)
		}
	}
}

// The bundled benchmarks are addressable with -bench.
func TestRunBundledBench(t *testing.T) {
	out, err := runArgs(t, "t3d", "shmem", 4, "cc", "tomcatv", configFlags{"n": 16, "iters": 1}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "-- tomcatv on 4-node Cray T3D (shmem), optimization cc") {
		t.Errorf("report header missing:\n%s", out)
	}
}

// Every failure mode surfaces as an error (the main function turns these
// into exit code 1), with a message naming the problem.
func TestRunErrors(t *testing.T) {
	good := writeTemp(t, laplaceSrc)
	cases := []struct {
		name    string
		mach    string
		lib     string
		level   string
		bench   string
		args    []string
		wantErr string
	}{
		{"no input", "t3d", "pvm", "pl", "", nil, "usage"},
		{"two files", "t3d", "pvm", "pl", "", []string{good, good}, "usage"},
		{"missing file", "t3d", "pvm", "pl", "", []string{filepath.Join(t.TempDir(), "nope.zpl")}, "no such file"},
		{"unknown bench", "t3d", "pvm", "pl", "nosuch", nil, "unknown benchmark"},
		{"bad level", "t3d", "pvm", "o9", "", []string{good}, "unknown optimization level"},
		{"bad machine", "cm5", "pvm", "pl", "", []string{good}, "unknown machine"},
		{"bad library", "t3d", "mpi", "pl", "", []string{good}, "unknown"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := runArgs(t, c.mach, c.lib, 4, c.level, c.bench, configFlags{}, c.args)
			if err == nil {
				t.Fatalf("run accepted bad input; output:\n%s", out)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestConfigFlags(t *testing.T) {
	cfg := configFlags{}
	if err := cfg.Set("n=64"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Set("iters=2.5"); err != nil {
		t.Fatal(err)
	}
	if cfg["n"] != 64 || cfg["iters"] != 2.5 {
		t.Errorf("parsed flags = %v", cfg)
	}
	if err := cfg.Set("bogus"); err == nil {
		t.Error("missing '=' accepted")
	}
	if err := cfg.Set("n=lots"); err == nil {
		t.Error("non-numeric value accepted")
	}
}

// The -trace flag writes schema-valid, byte-deterministic Chrome trace
// JSON with one named timeline row per processor and the IRONMAN call
// spans visible, matching the checked-in golden file. Regenerate with
// go test ./cmd/zplrun -run TestRunTraceFlag -update.
func TestRunTraceFlag(t *testing.T) {
	emit := func() []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "out.json")
		_, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
			tracePath: path, args: []string{writeTemp(t, laplaceSrc)}})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := emit()
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	out := string(data)
	if got := strings.Count(out, `"thread_name"`); got != 4 {
		t.Errorf("%d thread_name rows, want one per processor (4)", got)
	}
	for _, want := range []string{`"call":"DR"`, `"call":"SR"`, `"call":"DN"`, `"call":"SV"`, `"cat":"wait"`, `"cat":"send"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	if again := emit(); !bytes.Equal(data, again) {
		t.Error("two runs produced different trace bytes")
	}
	golden := filepath.Join("testdata", "tiny_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("trace differs from %s (-update to regenerate)", golden)
	}
}

// The -profile flag appends the per-callsite table to the report.
func TestRunProfileFlag(t *testing.T) {
	out, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		profile: true, args: []string{writeTemp(t, laplaceSrc)}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"Per-callsite communication profile",
		"callsite", "hoisted", "also covers",
		"U@[0,1,0]", // the east-shift transfer, attributed to its use
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The -critpath flag appends the exact critical-path analysis, and its
// finish time agrees with the execution-time line to the digit.
func TestRunCritpathFlag(t *testing.T) {
	out, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		critpath: true, args: []string{writeTemp(t, laplaceSrc)}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"critical path (exact):",
		"Critical-path contributors",
		"Longest bounding chains",
		"compute ", "comm overhead ", "waiting ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var execS string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-- execution time") {
			execS = strings.Fields(line)[3]
		}
		if strings.Contains(line, "critical path (exact):") {
			fields := strings.Fields(line)
			if execS == "" || fields[4] != execS {
				t.Errorf("critpath finish %s != execution time %s", fields[4], execS)
			}
		}
	}
	if execS == "" {
		t.Fatalf("no execution time line:\n%s", out)
	}
}

// The -metrics flag prints the registry; -metrics-json writes it as JSON.
func TestRunMetricsFlags(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "metrics.json")
	out, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		metrics: true, metricsJSON: jsonPath, args: []string{writeTemp(t, laplaceSrc)}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"counter  messages", "counter  bytes_sent", "hist     message_size_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(parsed.Counters) == 0 {
		t.Error("metrics JSON has no counters")
	}
	// Which row loops the kernels ran in: laplace's 4-double rows are all
	// under the wide loops' minimum.
	if !strings.Contains(out, "counter  kernel_elems_scalar") || !strings.Contains(out, "counter  kernel_elems_wide") {
		t.Errorf("output missing the kernel_elems counters:\n%s", out)
	}
}

// -cpuprofile and -memprofile write pprof files of the simulator's own run.
func TestRunHostProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if _, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		cpuProfile: cpu, memProfile: mem, args: []string{writeTemp(t, laplaceSrc)}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", filepath.Base(path), err)
		}
	}
}

// Unwritable output paths for the new flags surface as wrapped errors.
func TestRunObservabilityErrors(t *testing.T) {
	good := writeTemp(t, laplaceSrc)
	bad := filepath.Join(t.TempDir(), "missing-dir", "out.json")
	if _, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		tracePath: bad, args: []string{good}}); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("unwritable -trace path: err = %v", err)
	}
	if _, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		metricsJSON: bad, args: []string{good}}); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Errorf("unwritable -metrics-json path: err = %v", err)
	}
	if _, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		cpuProfile: bad, args: []string{good}}); err == nil || !strings.Contains(err.Error(), "cpuprofile") {
		t.Errorf("unwritable -cpuprofile path: err = %v", err)
	}
	if _, err := runWith(t, options{mach: "t3d", lib: "pvm", procs: 4, level: "pl",
		memProfile: bad, args: []string{good}}); err == nil || !strings.Contains(err.Error(), "memprofile") {
		t.Errorf("unwritable -memprofile path: err = %v", err)
	}
}
