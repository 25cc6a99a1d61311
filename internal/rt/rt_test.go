package rt

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/ref"
	"commopt/internal/zpl"
)

func compile(t *testing.T, src string) (*ir.Program, *comm.Plan) {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog, comm.BuildPlan(prog, comm.PL())
}

func run(t *testing.T, src string, procs int, lib string, cfg map[string]float64) *Result {
	t.Helper()
	prog, plan := compile(t, src)
	res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: lib, Procs: procs, ConfigVars: cfg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestRunRejectsBadCounts: a processor count below one and a negative
// scheduler worker count are errors, not runs.
func TestRunRejectsBadCounts(t *testing.T) {
	prog, plan := compile(t, lineSrc)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Procs: 0}, "rt: processor count 0 < 1"},
		{Config{Procs: 4, SchedWorkers: -3}, "rt: scheduler worker count -3 < 0"},
	} {
		c.cfg.Machine, c.cfg.Library = machine.T3D(), "pvm"
		if _, err := Run(prog, plan, c.cfg); err == nil || err.Error() != c.want {
			t.Errorf("Run(%+v) = %v, want %q", c.cfg, err, c.want)
		}
	}
}

// refRun is internal/ref's run of src: what every run of it must compute.
func refRun(t *testing.T, src string, vars map[string]float64) *ref.Result {
	t.Helper()
	ast, err := zpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want, err := ref.Run(ast, vars)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	return want
}

// refDiffs names the arrays of got that are not bit-identical to want's
// (NaN matching NaN).
func refDiffs(got *Result, want *ref.Result) []string {
	var diffs []string
	for _, name := range slices.Sorted(maps.Keys(want.Arrays)) {
		w, g := want.Arrays[name], got.arrays[name]
		if g == nil || g.Reg != w.Reg {
			diffs = append(diffs, fmt.Sprintf("array %s: missing or not over %v", name, w.Reg))
			continue
		}
		bad := 0
		for i, v := range g.data {
			if u := w.Data[i]; v != u && (v == v || u == u) {
				bad++
			}
		}
		if bad > 0 {
			diffs = append(diffs, fmt.Sprintf("array %s: %d elements differ from internal/ref's", name, bad))
		}
	}
	return diffs
}

func TestScalarControlFlow(t *testing.T) {
	src := `
program ctl;
region R = [1..4, 1..4];
var s, w : float;
procedure main();
begin
  s := 0.0;
  for i := 1 to 5 do s := s + i; end;           -- 15
  for i := 3 downto 1 do s := s + i * 10.0; end; -- +60 = 75
  w := 0.0;
  while w < 3.0 do w := w + 1.0; end;            -- 3
  repeat s := s + 1.0; until s >= 77.0;          -- 75->77
  if s = 77.0 then s := s + 0.5; elsif s > 100.0 then s := 0.0; else s := 1.0; end;
  writeln("s=", s, " w=", w);
end;
`
	res := run(t, src, 4, "pvm", nil)
	if got := strings.TrimSpace(res.Output); got != "s=77.5 w=3" {
		t.Fatalf("output = %q", got)
	}
}

func TestProcedureParams(t *testing.T) {
	src := `
program procs;
region R = [1..4, 1..4];
var s : float;
procedure addto(x : float; k : integer);
begin
  s := s + x * k;
end;
procedure main();
begin
  s := 0.0;
  addto(2.5, 4);
  addto(1.0, 1);
  writeln(s);
end;
`
	res := run(t, src, 1, "pvm", nil)
	if strings.TrimSpace(res.Output) != "11" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestShiftSemantics(t *testing.T) {
	src := `
program shift;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; se = [1, 1];
var A, B, C : [R] float;
procedure main();
begin
  [R] A := Index1 * 100.0 + Index2;
  [Int] B := A@east;
  [Int] C := A@se;
end;
`
	for _, procs := range []int{1, 4, 16} {
		res := run(t, src, procs, "pvm", nil)
		b, c := res.Array("B"), res.Array("C")
		for i := 2; i <= 7; i++ {
			for j := 2; j <= 7; j++ {
				if got, want := b.At(i, j, 1), float64(i*100+j+1); got != want {
					t.Fatalf("p%d: B(%d,%d) = %v, want %v", procs, i, j, got, want)
				}
				if got, want := c.At(i, j, 1), float64((i+1)*100+j+1); got != want {
					t.Fatalf("p%d: C(%d,%d) = %v, want %v", procs, i, j, got, want)
				}
			}
		}
	}
}

func TestWholeArraySemanticsSelfShift(t *testing.T) {
	// A := A@east must read the pre-assignment values everywhere.
	src := `
program selfshift;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A : [R] float;
procedure main();
begin
  [R] A := Index2;
  [Int] A := A@east;
end;
`
	res := run(t, src, 4, "pvm", nil)
	a := res.Array("A")
	for j := 2; j <= 7; j++ {
		if got := a.At(4, j, 1); got != float64(j+1) {
			t.Fatalf("A(4,%d) = %v, want %v", j, got, float64(j+1))
		}
	}
}

func TestGlobalBoundaryGhostsAreZero(t *testing.T) {
	src := `
program edge;
config var n : integer = 6;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := 1.0;
  [R] B := A@east; -- at column n this reads the uninitialized global ghost
end;
`
	res := run(t, src, 4, "pvm", nil)
	b := res.Array("B")
	if b.At(3, 6, 1) != 0 {
		t.Fatalf("B(3,n) = %v, want 0 (global ghost)", b.At(3, 6, 1))
	}
	if b.At(3, 5, 1) != 1 {
		t.Fatalf("B(3,5) = %v, want 1", b.At(3, 5, 1))
	}
}

func TestReductions(t *testing.T) {
	src := `
program reds;
config var n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var s, m, lo, pr : float;
procedure main();
begin
  [R] A := Index1 + Index2;
  [R] s := +<< A;
  [R] m := max<< A;
  [R] lo := min<< A;
  [1..2, 1..2] pr := *<< A;
  writeln(s, " ", m, " ", lo, " ", pr);
end;
`
	// sum over 8x8 of (i+j) = 2*8*sum(1..8) = 2*8*36 = 576; max 16; min 2;
	// product over [1..2,1..2] of {2,3,3,4} = 72.
	for _, procs := range []int{1, 4, 16} {
		res := run(t, src, procs, "pvm", nil)
		if got := strings.TrimSpace(res.Output); got != "576 16 2 72" {
			t.Fatalf("p%d: output = %q", procs, got)
		}
	}
}

func TestRank3Shift(t *testing.T) {
	src := `
program r3;
config var n : integer = 4;
region R3 = [1..n, 1..n, 1..n];
region I3 = [2..n-1, 2..n-1, 2..n-1];
direction xp = [1, 0, 0]; zp = [0, 0, 1];
var U, V, W : [R3] float;
procedure main();
begin
  [R3] U := Index1 * 100.0 + Index2 * 10.0 + Index3;
  [I3] V := U@xp;
  [I3] W := U@zp; -- third-dimension shift: local, no communication
end;
`
	res := run(t, src, 4, "pvm", nil)
	v, w := res.Array("V"), res.Array("W")
	if got := v.At(2, 3, 2); got != 332 {
		t.Fatalf("V(2,3,2) = %v, want 332", got)
	}
	if got := w.At(2, 3, 2); got != 233 {
		t.Fatalf("W(2,3,2) = %v, want 233", got)
	}
}

func TestThirdDimensionShiftNoMessages(t *testing.T) {
	src := `
program zonly;
config var n : integer = 4;
region R3 = [1..n, 1..n, 1..n];
region I3 = [1..n, 1..n, 2..n-1];
direction zp = [0, 0, 1];
var U, V : [R3] float;
procedure main();
begin
  [R3] U := Index3;
  [I3] V := U@zp;
end;
`
	res := run(t, src, 4, "pvm", nil)
	if res.Messages != 0 || res.DynamicTransfers != 0 {
		t.Fatalf("messages = %d, transfers = %d; want 0 (z shifts are local)", res.Messages, res.DynamicTransfers)
	}
}

func TestConfigOverride(t *testing.T) {
	src := `
program cfg;
config var n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
procedure main();
begin
  [R] A := 1.0;
  [R] s := +<< A;
  writeln(s);
end;
`
	res := run(t, src, 4, "pvm", map[string]float64{"n": 12})
	if strings.TrimSpace(res.Output) != "144" {
		t.Fatalf("output = %q, want 144", res.Output)
	}
	prog, plan := compile(t, src)
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: map[string]float64{"bogus": 1}}); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
program det;
config var n : integer = 12;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; north = [-1, 0];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 * 3.0 + Index2;
  for t := 1 to 3 do
    [Int] B := 0.5 * (A@east + A@north);
    [Int] A := A + 0.1 * B;
    [Int] s := +<< A;
  end;
  writeln(s);
end;
`
	r1 := run(t, src, 9, "shmem", nil)
	r2 := run(t, src, 9, "shmem", nil)
	if r1.ExecTime != r2.ExecTime {
		t.Errorf("exec times differ: %v vs %v", r1.ExecTime, r2.ExecTime)
	}
	if r1.Output != r2.Output {
		t.Errorf("outputs differ: %q vs %q", r1.Output, r2.Output)
	}
	if d := r1.MaxAbsDiff(r2, "A"); d != 0 {
		t.Errorf("arrays differ by %g", d)
	}
}

func TestDynamicCountsScaleWithIterations(t *testing.T) {
	src := `
program dyn;
config var n : integer = 8;
config var iters : integer = 4;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := 1.0;
  for t := 1 to iters do
    [Int] B := A@east;
    [Int] A := B@east;
  end;
end;
`
	prog, plan := compile(t, src)
	for _, iters := range []float64{1, 4, 10} {
		res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: map[string]float64{"iters": iters}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.DynamicTransfers, 2*int(iters); got != want {
			t.Fatalf("iters=%v: dynamic = %d, want %d", iters, got, want)
		}
	}
}

func TestGhostTooWideRejected(t *testing.T) {
	src := `
program wide;
config var n : integer = 8;
region R = [1..n, 1..n];
direction far = [0, 3];
var A, B : [R] float;
procedure main();
begin
  [1..n, 1..n-3] B := A@far;
end;
`
	prog, plan := compile(t, src)
	// 8 columns over 4 mesh columns = 2-wide blocks < ghost 3.
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 16}); err == nil {
		t.Fatal("expected ghost-width rejection")
	}
	// One processor handles it fine.
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 1}); err != nil {
		t.Fatalf("serial run failed: %v", err)
	}
}

// TestUnheldReadPositionedAtAnyWorkerCount: a read of B past what a
// processor holds fails the run with the same positioned error whichever
// processor meets it first and wherever: at the statement's operand check,
// or at the receive geometry of the transfer that serves the read, which a
// processor stepped before rank 0 fails reaches first.
func TestUnheldReadPositionedAtAnyWorkerCount(t *testing.T) {
	src := `program halo;
config var n : integer = 8;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A : [R] float;
var B : [Int] float;
procedure main();
begin
  [Int] B := Index1;
  [R] A := B@east;
end;
`
	prog, plan := compile(t, src)
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "shmem", Procs: 64, SchedWorkers: workers})
		if msg := fmt.Sprint(err); err == nil || !strings.Contains(msg, "11:7: B@[0,1] reads") {
			t.Errorf("workers=%d: error %q, want one naming 11:7 and B@[0,1]", workers, msg)
		}
	}
}

// TestUnheldRowReadPositioned: a kernel is compiled once per statement and
// shape class, before any region is known, so the check that its reads stay
// inside the halo is made where a run meets a region. The sweep's rows 1..5
// read B where its owners hold it; row 6 leaves the halo of processor 2,
// the only processor the column 1..1 puts it on, which holds B's row 5
// alone. Whichever worker steps it, processor 2 fails there, with the
// statement's position.
func TestUnheldRowReadPositioned(t *testing.T) {
	src := `program rows;
config var n : integer = 8;
region R = [1..n, 1..n];
region Top = [1..5, 1..n];
var A : [R] float;
var B : [Top] float;
procedure main();
begin
  [Top] B := Index1;
  for i := 1 to n do
    [i..i, 1..1] A := B;
  end;
end;
`
	prog, plan := compile(t, src)
	const want = "rt: processor 2: 11:18: B@[0,0] reads outside the halo the processor holds"
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, SchedWorkers: workers})
		if msg := fmt.Sprint(err); msg != want {
			t.Errorf("workers=%d: error %q, want %q", workers, msg, want)
		}
	}
	// Rows 1..5 alone are a run without error.
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, ConfigVars: map[string]float64{"n": 5}}); err != nil {
		t.Errorf("n=5: %v", err)
	}
}

// TestUnheldReadInBranchNotTaken: compiling every kernel at setup raises
// nothing for a statement that never runs; the same program fails, at the
// statement, where the branch is taken.
func TestUnheldReadInBranchNotTaken(t *testing.T) {
	src := `program never;
config var taken : integer = 0;
region R = [1..8, 1..8];
region Int = [2..7, 2..7];
var A : [R] float;
var B : [Int] float;
procedure main();
begin
  [Int] B := Index1;
  if taken = 1 then
    [R] A := B;
  end;
  writeln("ran");
end;
`
	prog, plan := compile(t, src)
	for _, procs := range []int{1, 4} {
		if res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: procs}); err != nil {
			t.Errorf("%d procs: %v", procs, err)
		} else if res.Output != "ran\n" {
			t.Errorf("%d procs: output %q, want \"ran\\n\"", procs, res.Output)
		}
		_, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: procs, ConfigVars: map[string]float64{"taken": 1}})
		if msg := fmt.Sprint(err); err == nil || !strings.Contains(msg, "11:9: B@[0,0] reads") {
			t.Errorf("%d procs, branch taken: error %q, want one naming 11:9 and B@[0,0]", procs, msg)
		}
	}
}

func TestUnknownLibraryRejected(t *testing.T) {
	src := "program p; region R = [1..4, 1..4]; var A : [R] float; procedure main(); begin [R] A := 1.0; end;"
	prog, plan := compile(t, src)
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "mpi", Procs: 4}); err == nil {
		t.Fatal("unknown library accepted")
	}
}

func TestWritelnOnlyRankZero(t *testing.T) {
	src := "program p; region R = [1..4, 1..4]; var A : [R] float; procedure main(); begin writeln(\"once\"); end;"
	res := run(t, src, 9, "pvm", nil)
	if res.Output != "once\n" {
		t.Fatalf("output = %q, want a single line", res.Output)
	}
}

func TestLiteralRegionWavefront(t *testing.T) {
	// A serialized row recurrence: row i depends on row i-1.
	src := `
program wave;
config var n : integer = 8;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A : [R] float;
procedure main();
begin
  [1..1, 1..n] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@north + 1.0;
  end;
end;
`
	for _, lib := range []string{"pvm", "shmem"} {
		res := run(t, src, 4, lib, nil)
		a := res.Array("A")
		for i := 1; i <= 8; i++ {
			if got := a.At(i, 3, 1); got != float64(i) {
				t.Fatalf("%s: A(%d,3) = %v, want %v", lib, i, got, float64(i))
			}
		}
	}
}

func TestMeshAssignment(t *testing.T) {
	res := run(t, "program p; region R = [1..8, 1..8]; var A : [R] float; procedure main(); begin [R] A := 1.0; end;", 8, "pvm", nil)
	if res.Mesh.Rows != 4 || res.Mesh.Cols != 2 {
		t.Fatalf("mesh = %v, want 4x2", res.Mesh)
	}
}

func TestBreakdownAccounts(t *testing.T) {
	src := `
program bd;
config var n : integer = 16;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B : [R] float;
procedure main();
begin
  [R] A := Index1 + Index2;
  for t := 1 to 4 do
    [Int] B := A@east * 1.0001;
    [Int] A := B@east + 0.5;
  end;
end;
`
	res := run(t, src, 4, "pvm", nil)
	bd := res.Breakdown
	if bd.Compute <= 0 || bd.Comm <= 0 {
		t.Fatalf("breakdown has empty categories: %+v", bd)
	}
	// The critical-path processor's categories sum to its clock, which is
	// the reported execution time.
	if bd.Total() != res.ExecTime {
		t.Fatalf("breakdown total %v != exec time %v", bd.Total(), res.ExecTime)
	}
	if len(res.PerProc) != 4 {
		t.Fatalf("per-proc breakdowns = %d, want 4", len(res.PerProc))
	}
	if f := bd.CommFraction(); f <= 0 || f >= 1 {
		t.Fatalf("comm fraction = %v", f)
	}
}

// TestTimeReadsNoValue: virtual time never reads a value, so simple on a
// second initial data set — other constants in its coordinates and
// energies, the same operators — takes the same time on every processor and sends the same
// messages, while its arrays differ. This is why making a program compute
// numbers instead of NaN moves no time or count.
func TestTimeReadsNoValue(t *testing.T) {
	bench, err := programs.ByName("simple")
	if err != nil {
		t.Fatal(err)
	}
	other := bench.Source
	for _, r := range [][2]string{
		{"[G] XN  := Index2 * 1.0;", "[G] XN  := Index2 * 1.5;"},
		{"[G] E   := 2.5 + 0.5 *", "[G] E   := 3.5 + 0.75 *"},
	} {
		if !strings.Contains(other, r[0]) {
			t.Fatalf("simple has no %q to change", r[0])
		}
		other = strings.Replace(other, r[0], r[1], 1)
	}
	for _, lib := range []string{"pvm", "shmem"} {
		cfg := Config{Procs: 4, Library: lib, ConfigVars: bench.TestConfig}
		a, b := runSrc(t, bench.Source, comm.PL(), cfg), runSrc(t, other, comm.PL(), cfg)
		if sameArrays(a, b) {
			t.Fatalf("%s: the two data sets leave the same arrays", lib)
		}
		counts := func(r *Result) string {
			return fmt.Sprint(r.ExecTime, r.DynamicTransfers, r.Messages, r.BytesSent, r.Reductions, r.PerProcMsgs, r.PerProc)
		}
		if ca, cb := counts(a), counts(b); ca != cb {
			t.Errorf("%s: time and counts %s on one data set, %s on the other", lib, ca, cb)
		}
	}
}
