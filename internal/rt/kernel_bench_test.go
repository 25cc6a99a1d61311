package rt

import (
	"fmt"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/zpl"
)

// kernelShapes lists one statement per shape of array statement — a name
// here is a statement, not a compile path: "bin" is the tree compiler's
// view∘view node, "stencil" its scalar∘row over view sums, "index" a
// per-row value times a run row.
var kernelShapes = []struct {
	name string
	stmt string
}{
	{"fill", "[R] C := 1.5;"},
	{"copy", "[R] C := A;"},
	{"bin", "[R] C := A * B;"},
	{"axpy", "[R] C := 2.5 * A + B;"},
	{"stencil", "[Int] C := 0.25 * (A@east + A@west + A@north + A@south);"},
	{"mapreduce", "[R] s := max<< abs(A - B);"},
	{"index", "[R] C := 250.0 * sin(Index1 * 0.05) * cos(Index2 * 0.05);"},
}

const kernelBenchSrc = `
program kbench;
config var n : integer = 96;
config var iters : integer = 40;
region R = [1..n, 1..n];
region Int = [2..n-1, 2..n-1];
direction east = [0, 1]; west = [0, -1]; north = [-1, 0]; south = [1, 0];
var A, B, C : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 * 0.5 + Index2;
  [R] B := Index1 - Index2 * 0.25;
  for t := 1 to iters do
    %s
  end;
  [R] s := +<< C;
end;
`

// kernelRowLens is BenchmarkKernels' row-length axis: the grid is n x n on
// one processor, so rows are n doubles (n-2 over Int). At n = 4 every row
// is shorter than the wide loops' eight-wide step (2 over Int), so the
// assembly runs only its tails; the longer rows run its eight-wide loop.
var kernelRowLens = []int{4, 8, 16, 32, 96, 512}

func benchShape(b *testing.B, stmt string, n int) {
	b.Helper()
	src := fmt.Sprintf(kernelBenchSrc, stmt)
	ast, err := zpl.Parse(src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		b.Fatalf("lower: %v", err)
	}
	plan := comm.BuildPlan(prog, comm.PL())
	cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 1, ConfigVars: map[string]float64{"n": float64(n)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernels measures each statement shape at each row length on one
// simulated processor, so the numbers isolate array evaluation from
// messaging.
func BenchmarkKernels(b *testing.B) {
	for _, sh := range kernelShapes {
		for _, n := range kernelRowLens {
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) { benchShape(b, sh.stmt, n) })
		}
	}
}
