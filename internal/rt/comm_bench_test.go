package rt_test

import (
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// commBenchSrc is a message-heavy four-point stencil: enough iterations
// that the steady-state cost of the communication path — packing,
// message buffers, stash maps — dominates the one-time cost of building
// the world, so allocs/op measures the send/receive machinery rather
// than setup.
const commBenchSrc = `program cbench;
config var n : integer = 32;
config var iters : integer = 256;
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
end;
`

// BenchmarkCommPathPooled runs commBenchSrc: every message goes through the
// compiled pack/unpack schedules with pooled, recycled buffers.
func BenchmarkCommPathPooled(b *testing.B) {
	ast, err := zpl.Parse(commBenchSrc)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		b.Fatalf("lower: %v", err)
	}
	plan := comm.BuildPlan(prog, comm.PL())
	cfg := rt.Config{Machine: machine.T3D(), Library: "pvm", Procs: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(prog, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
