package commopt

import (
	"testing"

	"commopt/internal/comm"
)

const hoistSrc = `
program varcoef;
config var n : integer = 16;
config var iters : integer = 5;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var T, Tn, K : [R] float;
procedure main();
begin
  [R] K := 1.0 + 0.01 * Index1;   -- conductivity: set once, never updated
  [R] T := Index2;
  for t := 1 to iters do
    [Int] begin
      -- K@north / K@south carry identical data every iteration: hoistable.
      -- T@east / T@west change every iteration: not hoistable.
      Tn := T + 0.05 * (K@north + K@south) * (T@east - 2.0 * T + T@west);
      T  := Tn;
    end;
  end;
end;
`

// TestHoistInvariantCounts: the cross-block extension moves the
// time-constant coefficient communications out of the loop, cutting the
// dynamic count, while the time-varying field still communicates every
// iteration.
func TestHoistInvariantCounts(t *testing.T) {
	prog, err := Compile(hoistSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain := prog.Plan(comm.PL())
	opts := comm.PL()
	opts.HoistInvariant = true
	hoisted := prog.Plan(opts)
	if fs := comm.CheckPlan(hoisted); len(fs) > 0 {
		t.Fatalf("hoisted plan invalid: %v", fs)
	}
	if hoisted.HoistedCount() != 2 {
		t.Fatalf("hoisted = %d transfers, want 2 (K@north, K@south)", hoisted.HoistedCount())
	}

	run := func(plan *comm.Plan) int {
		res, err := prog.Run(plan, RunOptions{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.DynamicTransfers
	}
	plainDyn, hoistDyn := run(plain), run(hoisted)
	// Plain: 4 transfers x 5 iterations = 20. Hoisted: 2 x 5 + 2 = 12.
	if plainDyn != 20 || hoistDyn != 12 {
		t.Fatalf("dynamic transfers plain=%d hoisted=%d, want 20 and 12", plainDyn, hoistDyn)
	}
}

// TestHoistPreservesResults: hoisting changes when data moves, never what
// is computed.
func TestHoistPreservesResults(t *testing.T) {
	prog, err := Compile(hoistSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := comm.PL()
	opts.HoistInvariant = true
	for _, lib := range []string{"pvm", "shmem"} {
		plain, err := prog.Run(prog.Plan(comm.PL()), RunOptions{Procs: 4, Library: lib})
		if err != nil {
			t.Fatal(err)
		}
		hoisted, err := prog.Run(prog.Plan(opts), RunOptions{Procs: 4, Library: lib})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"T", "Tn", "K"} {
			if d := plain.MaxAbsDiff(hoisted, name); d != 0 {
				t.Errorf("%s: array %s differs by %g under hoisting", lib, name, d)
			}
		}
	}
}

// TestHoistOnSuite: on the paper's benchmarks the conservative rule fires
// exactly once — SIMPLE's heat-conduction sub-loop reads the conductivity
// K through four offsets without ever assigning it, so those transfers
// hoist to the sub-loop's preheader. Everything else is loop-variant
// (main loops update what they communicate; sweeps use loop-variant
// regions). Results must be bit-identical either way.
func TestHoistOnSuite(t *testing.T) {
	want := map[string]int{"tomcatv": 0, "swm": 0, "simple": 4, "sp": 0}
	for _, name := range []string{"tomcatv", "swm", "simple", "sp"} {
		prog := mustSuiteProgram(t, name)
		opts := comm.PL()
		opts.HoistInvariant = true
		plan := prog.Plan(opts)
		if fs := comm.CheckPlan(plan); len(fs) > 0 {
			t.Fatalf("%s: %v", name, fs)
		}
		if n := plan.HoistedCount(); n != want[name] {
			t.Errorf("%s: hoisted %d transfers, want %d", name, n, want[name])
		}
	}

	// SIMPLE with hoisting computes the same arrays — and exposes the
	// optimization interaction the paper's Section 4 anticipates: to hoist
	// K, the planner must keep K's transfers out of the combined {T,K}
	// groups, and with only two relax-loop trips the lost combining (4
	// extra T-only transfers per outer iteration) outweighs the hoisting
	// gain (4 K transfers once per outer iteration instead of twice):
	// plain 8/outer vs hoisted 12/outer. Hoisting wins only for longer
	// inner loops.
	prog := mustSuiteProgram(t, "simple")
	cfg := map[string]float64{"n": 24, "iters": 2}
	plain, err := prog.Run(prog.Plan(comm.PL()), RunOptions{Procs: 4, Configs: cfg})
	if err != nil {
		t.Fatal(err)
	}
	opts := comm.PL()
	opts.HoistInvariant = true
	hoisted, err := prog.Run(prog.Plan(opts), RunOptions{Procs: 4, Configs: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range prog.IR.Arrays {
		if d := plain.MaxAbsDiff(hoisted, a.Name); d != 0 {
			t.Errorf("simple: array %s differs by %g under hoisting", a.Name, d)
		}
	}
	if got, want := hoisted.DynamicTransfers-plain.DynamicTransfers, 8; got != want {
		t.Errorf("simple hoisting count delta = %d, want +%d (the combining-vs-hoisting tradeoff at 2 relax trips)", got, want)
	}
}

// TestHoistRespectsWavefronts: loop-variant literal regions (the
// tridiagonal sweeps) must never hoist.
func TestHoistRespectsWavefronts(t *testing.T) {
	src := `
program wave;
config var n : integer = 8;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A, C : [R] float;
procedure main();
begin
  [R] C := 2.0;
  [1..1, 1..n] A := 1.0;
  for i := 2 to n do
    [i..i, 1..n] A := A@north * C@north;
  end;
end;
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := comm.PL()
	opts.HoistInvariant = true
	plan := prog.Plan(opts)
	if n := plan.HoistedCount(); n != 0 {
		t.Fatalf("hoisted %d transfers out of a loop-variant region", n)
	}
}
