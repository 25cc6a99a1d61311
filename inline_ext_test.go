package commopt

import (
	"testing"

	"commopt/internal/comm"
)

const inlineExtSrc = `
program calls;
config var n : integer = 16;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1];
var A, B, C, D : [R] float;
procedure step(w : float);
begin
  [Int] C := w * B@east;
end;
procedure main();
begin
  [R] B := Index1 + Index2;
  [Int] A := B@east;
  step(0.5);
  [Int] D := B@east + C;
end;
`

// TestInliningExposesRedundancy: the paper's Section 4 inlining
// extension — a call site is a basic-block boundary, so without inlining
// the B@east communications before and after the call are all emitted;
// with inlining, redundancy removal spans the former call.
func TestInliningExposesRedundancy(t *testing.T) {
	prog, err := Compile(inlineExtSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain := prog.Plan(comm.RR())
	inlined := prog.Inlined().Plan(comm.RR())
	if fs := comm.CheckPlan(inlined); len(fs) > 0 {
		t.Fatalf("inlined plan invalid: %v", fs)
	}
	if plain.StaticCount != 3 {
		t.Fatalf("plain static = %d, want 3 (three separate blocks)", plain.StaticCount)
	}
	if inlined.StaticCount != 1 {
		t.Fatalf("inlined static = %d, want 1 (one block, redundancy removed)", inlined.StaticCount)
	}
}

// TestInliningPreservesResults: the inlined program computes exactly the
// same arrays.
func TestInliningPreservesResults(t *testing.T) {
	prog, err := Compile(inlineExtSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := prog.Run(prog.Plan(comm.PL()), RunOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	inl := prog.Inlined()
	inlRes, err := inl.Run(inl.Plan(comm.PL()), RunOptions{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		if d := plain.MaxAbsDiff(inlRes, name); d != 0 {
			t.Errorf("array %s differs by %g after inlining", name, d)
		}
	}
}

// TestInliningOnSuite: inlining every suite benchmark yields valid plans
// with static counts no higher than the plain program's.
func TestInliningOnSuite(t *testing.T) {
	for _, name := range []string{"tomcatv", "swm", "simple", "sp"} {
		prog := mustSuiteProgram(t, name)
		plain := prog.Plan(comm.PL())
		inlined := prog.Inlined().Plan(comm.PL())
		if fs := comm.CheckPlan(inlined); len(fs) > 0 {
			t.Fatalf("%s: inlined plan invalid: %v", name, fs)
		}
		if inlined.StaticCount > plain.StaticCount {
			t.Errorf("%s: inlining increased static count %d -> %d", name, plain.StaticCount, inlined.StaticCount)
		}
	}
}
