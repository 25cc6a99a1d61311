package commopt

import (
	"testing"

	"commopt/internal/comm"
	"commopt/internal/programs"
)

const smokeSrc = `
program smoke;

config var n : integer = 16;
config var iters : integer = 4;

region R = [1..n, 1..n];
region Interior = [2..n-1, 2..n-1];

direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];

var A, B, C : [R] float;
var err : float;

procedure main();
var t : integer;
begin
  [R] A := Index1 * 100.0 + Index2;
  [R] B := 0.0;
  [R] C := 0.0;
  for t := 1 to iters do
    [Interior] begin
      B := 0.25 * (A@east + A@west + A@north + A@south);
      C := B@east - B@west;
      A := A + 0.5 * (B - A) + 0.01 * C;
    end;
  end;
  [R] err := max<< abs(A);
  writeln("err = ", err);
end;
`

func TestSmokeEndToEnd(t *testing.T) {
	prog, err := Compile(smokeSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var results []float64
	for _, lv := range comm.Levels() {
		plan := prog.Plan(lv.Opts)
		if plan.StaticCount == 0 {
			t.Fatalf("%s: no transfers planned", lv.Name)
		}
		for _, lib := range []string{"pvm", "shmem"} {
			for _, procs := range []int{1, 4, 16} {
				res, err := prog.Run(plan, RunOptions{Library: lib, Procs: procs})
				if err != nil {
					t.Fatalf("%s/%s/p%d: %v", lv.Name, lib, procs, err)
				}
				if res.ExecTime <= 0 {
					t.Errorf("%s/%s/p%d: nonpositive exec time", lv.Name, lib, procs)
				}
				v := res.Array("A").At(8, 8, 1)
				results = append(results, v)
				if v != results[0] {
					t.Errorf("%s/%s/p%d: A(8,8)=%v, want %v (baseline)", lv.Name, lib, procs, v, results[0])
				}
			}
		}
	}
}

// mustSuiteProgram compiles a bundled benchmark for tests.
func mustSuiteProgram(t *testing.T, name string) *Program {
	t.Helper()
	b, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Compile("program"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Compile("program p; procedure main(); begin x := 1.0; end;"); err == nil {
		t.Error("semantic error not surfaced")
	}
	prog, err := Compile(smokeSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan := prog.Plan(comm.PL())
	if _, err := prog.Run(plan, RunOptions{Machine: "cm5"}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := prog.Run(plan, RunOptions{Library: "mpi"}); err == nil {
		t.Error("unknown library accepted")
	}
	other, err := Compile(smokeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(plan, RunOptions{}); err == nil {
		t.Error("plan from a different program accepted")
	}
}

func TestRunDefaults(t *testing.T) {
	prog, err := Compile(smokeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(prog.Plan(comm.CC()), RunOptions{Configs: map[string]float64{"n": 16, "iters": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.Size() != 64 {
		t.Errorf("default partition = %d processors, want 64 (the paper's)", res.Mesh.Size())
	}
}
