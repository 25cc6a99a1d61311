package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
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

// -O pl+hoist runs a hoisted plan: K's exchange leaves the loop, so fewer
// transfers execute, and the program prints what it prints under -O pl.
func TestRunHoistedPlan(t *testing.T) {
	const src = `program hoist;
config var n : integer = 8;
config var iters : integer = 3;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1];
var K, T, Tn : [R] float;
var tsum : float;
procedure main();
begin
  [R] K := Index1;
  [R] T := Index2;
  for t := 1 to iters do
    [Int] begin
      Tn := T + 0.1 * K@east * (T@west - T);
      T := Tn;
    end;
  end;
  [R] tsum := +<< T;
  writeln("tsum = ", tsum);
end;
`
	path := writeTemp(t, src)
	split := func(level string) (prints, stats string) {
		t.Helper()
		out, err := runArgs(t, "t3d", "pvm", 4, level, "", configFlags{}, []string{path})
		if err != nil {
			t.Fatalf("-O %s: %v", level, err)
		}
		prints, stats, _ = strings.Cut(out, "-- ")
		return prints, stats
	}
	plPrints, plStats := split("pl")
	hoistPrints, hoistStats := split("pl+hoist")
	if !strings.HasPrefix(plPrints, "tsum = ") || hoistPrints != plPrints {
		t.Errorf("-O pl+hoist printed %q, -O pl printed %q", hoistPrints, plPrints)
	}
	if hoistStats == plStats {
		t.Errorf("-O pl+hoist reports the same statistics as -O pl:\n%s", plStats)
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

// twoErrors has two syntax errors; zplc reports them in the same words.
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

// unheldSrc's last statement runs on processor 0 alone, the owner of its one
// point, which holds none of B on 64 processors.
const unheldSrc = `program unheld;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n, 2..n];
direction east = [0, 1];
var A : [R] float;
var B : [Int] float;
procedure main();
begin
  [Int] B := 1.0;
  [1..1, 1..1] A := B@east + 5.0;
end;
`

// Bad input of every kind fails with one error, writes nothing to stdout
// and never surfaces a Go stack trace.
func TestRunBadInput(t *testing.T) {
	dir := t.TempDir()
	file := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bad, good := file("bad.zpl", twoErrors), file("good.zpl", laplaceSrc)
	half := file("half.zpl", strings.Replace(laplaceSrc, "[1..n, 1..n]", "[1..0.5, 1..n]", 1))
	unheld := file("unheld.zpl", unheldSrc)
	// n/2 is 4.5 at n = 9: a loop bound and a literal region bound that are
	// not integers, alike on every processor, so the error names none.
	forHalf := file("forhalf.zpl", strings.Replace(laplaceSrc, "to iters", "to n/2", 1))
	litHalf := file("lithalf.zpl", strings.NewReplacer("var resid : float;", "var resid, h : float;",
		"[R] U := Index1", "h := n / 2;\n  [1..h, 1..n] U := Index1").Replace(laplaceSrc))
	for _, c := range []struct {
		name string
		args []string
		want string // the whole error, when set
	}{
		{"empty file", []string{file("empty.zpl", "")}, ""},
		{"1 MB of [", []string{file("open.zpl", strings.Repeat("[", 1<<20))}, ""},
		{"two syntax errors", []string{bad}, bad + `:6:8: expected expression, found ; ";"` + "\n" +
			bad + `:7:13: expected expression, found ; ";"`},
		{"-procs 0", []string{"-procs", "0", good}, ""},
		{"-procs 65537", []string{"-procs", "65537", good}, ""},
		{"unknown machine", []string{"-machine", "nope", good}, ""},
		{"unknown library", []string{"-lib", "nope", good}, ""},
		{"butterfly on 6", []string{"-procs", "6", "-collective", "butterfly", good}, ""},
		{"-set n=-1", []string{"-procs", "4", "-set", "n=-1", good}, good + ":4:1: rt: region R is empty: [1..-1, 1..-1]"},
		{"a 0.5 bound", []string{"-procs", "4", half}, half + ":4:1: rt: region R: non-integer bounds 1..0.5"},
		{"tomcatv -set n=2", []string{"-bench", "tomcatv", "-set", "n=2"}, "tomcatv:16:1: rt: region Int is empty: [2..1, 2..1]"},
		{"unheld read", []string{"-procs", "64", unheld},
			unheld + ":11:16: rt: processor 0: B@[0,1] reads an array the processor holds none of"},
		{"for bound 4.5, 1 worker", []string{"-procs", "16", "-sched-workers", "1", "-set", "n=9", forHalf},
			forHalf + ":12:3: rt: for bound is not an integer: 4.5"},
		{"for bound 4.5, 2 workers", []string{"-procs", "16", "-sched-workers", "2", "-set", "n=9", forHalf},
			forHalf + ":12:3: rt: for bound is not an integer: 4.5"},
		{"region bound 4.5, 1 worker", []string{"-procs", "16", "-sched-workers", "1", "-set", "n=9", litHalf},
			litHalf + ":12:3: rt: region bound is not an integer: 4.5"},
		{"region bound 4.5, 2 workers", []string{"-procs", "16", "-sched-workers", "2", "-set", "n=9", litHalf},
			litHalf + ":12:3: rt: region bound is not an integer: 4.5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			o, err := parseArgs(c.args)
			if err == nil {
				err = run(&out, o)
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

// parseArgs reads every flag into options, in-process.
func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-machine", "rdma", "-lib", "verbs", "-procs", "16", "-O", "cc",
		"-collective", "tree", "-set", "n=24", "-set", "iters=2", "-profile", "-critpath", "-metrics", "prog.zpl"})
	if err != nil {
		t.Fatal(err)
	}
	if o.mach != "rdma" || o.lib != "verbs" || o.procs != 16 || o.level != "cc" || o.coll != "tree" ||
		o.cfg["n"] != 24 || o.cfg["iters"] != 2 || !o.profile || !o.critpath || !o.metrics ||
		len(o.args) != 1 || o.args[0] != "prog.zpl" {
		t.Errorf("parseArgs = %+v", o)
	}
	for _, args := range [][]string{{"-wat"}, {"-procs", "many"}, {"-set", "n"}} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted bad flags", args)
		}
	}
}

// TestSchedWorkersDeterminism runs one world on 1, 2, 3 (uneven home bands)
// and 8 scheduler workers and wants the same bytes from each. tomcatv/shmem
// exercises the ready tokens, sp/pvm the returned-buffer back-channel, and
// tomcatv under butterfly, simple under star and sp under twolevel the
// reduction rendezvous, whichever rank arrives last: simple's critical path
// and sp's profile read every hop's wait. sp/pvm runs with -metrics too, so
// kernel_compiles and the region_slot_* counters of a literal-region
// program hold still. swm runs with all four
// observers on, whose reports fold the processors' event logs in whatever
// order the workers flush them: its stdout and trace must not move either.
// Every run drops the lines with " sched_": the metrics' counts of the
// host's stepping, and the schedule cache's. Workers only interleave where GOMAXPROCS lets them run at
// once, so CI runs this test under GOMAXPROCS=8.
func TestSchedWorkersDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, args := range []string{
		"-bench tomcatv -lib shmem",
		"-bench sp -lib pvm -metrics",
		"-bench tomcatv -collective butterfly",
		"-bench simple -collective star -critpath",
		"-bench sp -collective twolevel -profile",
		"-bench swm -lib shmem -profile -metrics -critpath -trace",
	} {
		t.Run(args, func(t *testing.T) { schedWorkersAgree(t, dir, args) })
	}
}

// schedWorkersAgree runs zplrun with args at every worker count.
func schedWorkersAgree(t *testing.T, dir, args string) {
	var first, firstTrace []byte
	for _, n := range []string{"1", "2", "3", "8"} {
		a := strings.Fields(args)
		tracePath := filepath.Join(dir, "w"+n+".json")
		if a[len(a)-1] == "-trace" {
			a = append(a, tracePath)
		}
		o, err := parseArgs(append(a, "-procs", "64", "-sched-workers", n))
		if err != nil {
			t.Fatal(err)
		}
		var buf, out bytes.Buffer
		if err := run(&buf, o); err != nil {
			t.Fatalf("%s -sched-workers %s: %v", args, n, err)
		}
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if !strings.Contains(line, " sched_") {
				out.WriteString(line)
			}
		}
		var tr []byte
		if o.tracePath != "" {
			if tr, err = os.ReadFile(tracePath); err != nil {
				t.Fatal(err)
			}
		}
		if first == nil {
			first, firstTrace = out.Bytes(), tr
			continue
		}
		if !bytes.Equal(out.Bytes(), first) {
			t.Errorf("%s: -sched-workers %s prints other bytes than one worker:\n%s", args, n, lineDiff(string(first), out.String()))
		}
		if !bytes.Equal(tr, firstTrace) {
			t.Errorf("%s: -sched-workers %s writes another trace than one worker", args, n)
		}
	}
}

// lineDiff names the first line where two outputs differ.
func lineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  " + la[i] + "\n  " + lb[i]
		}
	}
	return "line " + strconv.Itoa(min(len(la), len(lb))+1) + ": one output ends"
}
