package commopt

import (
	"fmt"
	"os"
	"testing"

	"commopt/internal/cost"
	"commopt/internal/machine"
)

// TestMidBlockScalarWrite holds testdata/regress/midblock_scalar.zpl to the
// values written out here — the one-processor run resolves its regions the
// way every other run does, so it cannot be the only reference — at every
// paper level, partition and library, and the cost predictor to the run.
// With the scalar assignment inside the block, rr dropped the second
// X@north as redundant (D(5, ·) stayed 0) and pl resolved the first one's
// region after the assignment; comm.SplitSegments now ends the block there.
func TestMidBlockScalarWrite(t *testing.T) {
	src, err := os.ReadFile("testdata/regress/midblock_scalar.zpl")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	// X = Index1; C is X@north on row 3, D on row 5, both zero elsewhere.
	want := func(name string, i int) float64 {
		switch {
		case name == "X":
			return float64(i)
		case name == "C" && i == 3:
			return 2
		case name == "D" && i == 5:
			return 4
		}
		return 0
	}
	for _, lv := range diffLevels[:4] { // baseline, rr, cc, pl
		plan := prog.Plan(lv.opts)
		for _, procs := range []int{1, 4, 16, 64} {
			for _, lib := range []string{"pvm", "shmem"} {
				t.Run(fmt.Sprintf("%s/p%d/%s", lv.name, procs, lib), func(t *testing.T) {
					res := mustRun(t, prog, plan, RunOptions{Procs: procs, Library: lib})
					for _, name := range []string{"X", "C", "D"} {
						for i := 1; i <= n; i++ {
							for j := 1; j <= n; j++ {
								if got := res.Array(name).At(i, j, 1); got != want(name, i) {
									t.Errorf("%s(%d,%d) = %v, want %v", name, i, j, got, want(name, i))
								}
							}
						}
					}
					pred, err := cost.Predict(prog.IR, plan, cost.Config{Machine: machine.T3D(), Library: lib, Procs: procs})
					if err != nil {
						t.Fatalf("Predict: %v", err)
					}
					if pred.Messages != res.Messages || pred.BytesSent != res.BytesSent || pred.DynamicTransfers != res.DynamicTransfers {
						t.Errorf("predicted %d messages, %d bytes, %d transfers; ran %d, %d, %d",
							pred.Messages, pred.BytesSent, pred.DynamicTransfers, res.Messages, res.BytesSent, res.DynamicTransfers)
					}
					for r := range res.PerProc {
						if pred.PerProcComm[r] != res.PerProc[r].Comm || pred.PerProcMsgs[r] != res.PerProcMsgs[r] {
							t.Errorf("rank %d: predicted comm %v and %d messages, ran %v and %d",
								r, pred.PerProcComm[r], pred.PerProcMsgs[r], res.PerProc[r].Comm, res.PerProcMsgs[r])
						}
					}
				})
			}
		}
	}
}

// TestInlinedLiteralParam: inlining turns a call into assignments to the
// callee's parameters followed by its body, in the caller's block. Where a
// literal region of the body reads a parameter the block ends after the
// assignment, so the region is evaluated with the argument, not with the
// previous call's.
func TestInlinedLiteralParam(t *testing.T) {
	prog, err := Compile(`program twice;
config var n : integer = 12;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A, B : [R] float;
procedure fill(r : integer; v : float);
begin
  [r..r, 1..n] begin
    B := A@north + v;
    A := B;
  end;
end;
procedure main();
begin
  [R] A := Index1;
  fill(3, 10.0);
  fill(7, 20.0);
end;
`)
	if err != nil {
		t.Fatal(err)
	}
	inl := prog.Inlined()
	for _, lv := range diffLevels[:4] {
		for _, procs := range []int{1, 16} {
			res := mustRun(t, inl, inl.Plan(lv.opts), RunOptions{Procs: procs, Library: "shmem"})
			for i := 1; i <= 12; i++ {
				want := float64(i)
				switch i {
				case 3:
					want = 12 // A(2) + 10
				case 7:
					want = 26 // A(6) + 20
				}
				if got := res.Array("A").At(i, 5, 1); got != want {
					t.Errorf("%s/p%d: A(%d,5) = %v, want %v", lv.name, procs, i, got, want)
				}
			}
		}
	}
}
