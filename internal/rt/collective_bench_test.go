// Allreduce benchmarks live in package rt_test beside the scheduler
// benchmarks.
package rt_test

import (
	"testing"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// collBenchSrc is deliberately reduction-bound: the array update is one
// add per element while every iteration runs a full allreduce, so host
// wall-clock tracks how the runtime moves reduction messages, not how it
// executes kernels. n=128 keeps every partition up to a 64×64 mesh legal
// (2×2 blocks at 4096 procs).
const collBenchSrc = `program cbench;
config var n : integer = 128;
config var iters : integer = 20;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 + Index2;
  for t := 1 to iters do
    [R] begin
      A := A + 1.0;
      s := +<< A;
    end;
  end;
end;
`

func collBenchPlan(tb testing.TB) (*ir.Program, *comm.Plan) {
	tb.Helper()
	ast, err := zpl.Parse(collBenchSrc)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	return prog, comm.BuildPlan(prog, comm.PL())
}

// benchAllreduce runs the reduction-bound program at one partition size
// with the given algorithm forced. The star-vs-tree host-time gap at
// large P is the point: star funnels P-1 messages through rank 0's
// mailbox every reduction, serializing delivery on one virtual proc,
// while tree and butterfly spread the same fold across the mesh.
func benchAllreduce(b *testing.B, procs int, alg collective.Alg) {
	b.Helper()
	prog, plan := collBenchPlan(b)
	cfg := rt.Config{Machine: machine.T3D(), Library: "pvm", Procs: procs, Collective: alg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(prog, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduceStar64(b *testing.B)        { benchAllreduce(b, 64, collective.Star) }
func BenchmarkAllreduceTree64(b *testing.B)        { benchAllreduce(b, 64, collective.Tree) }
func BenchmarkAllreduceButterfly64(b *testing.B)   { benchAllreduce(b, 64, collective.Butterfly) }
func BenchmarkAllreduceStar1024(b *testing.B)      { benchAllreduce(b, 1024, collective.Star) }
func BenchmarkAllreduceTree1024(b *testing.B)      { benchAllreduce(b, 1024, collective.Tree) }
func BenchmarkAllreduceButterfly1024(b *testing.B) { benchAllreduce(b, 1024, collective.Butterfly) }
func BenchmarkAllreduceStar4096(b *testing.B)      { benchAllreduce(b, 4096, collective.Star) }
func BenchmarkAllreduceTree4096(b *testing.B)      { benchAllreduce(b, 4096, collective.Tree) }
func BenchmarkAllreduceButterfly4096(b *testing.B) { benchAllreduce(b, 4096, collective.Butterfly) }

// TestCollBenchBlocksFit pins the benchmark's geometry assumption: the
// grid must keep every partition in the sweep legal, so a config edit
// cannot silently turn the 4096-proc benchmark into an error path.
func TestCollBenchBlocksFit(t *testing.T) {
	prog, plan := collBenchPlan(t)
	for _, procs := range []int{64, 1024, 4096} {
		res, err := rt.Run(prog, plan, rt.Config{
			Machine: machine.T3D(), Library: "pvm", Procs: procs,
			ConfigVars: map[string]float64{"iters": 1},
		})
		if err != nil {
			t.Errorf("%d procs: %v", procs, err)
			continue
		}
		if res.Reductions == 0 {
			t.Errorf("%d procs: no reductions executed, benchmark is not reduction-bound", procs)
		}
	}
}

// TestCollBenchAlgorithmsDiffer pins what the benchmark program costs on
// the simulated machine, to the nanosecond and the message. Star and tree
// move the same 2(P-1) hops per reduction, so message totals cannot tell
// them apart; the schedules differ in shape, which simulated time sees —
// a resolution bug that collapsed the sweep into one algorithm run three
// times, or a schedule or cost change that flattened the tree back into a
// star, moves a row. Simulated time at 4096 processors is held by bench's
// scale_4096 workload (rt.sim_s, exact under -compare).
func TestCollBenchAlgorithmsDiffer(t *testing.T) {
	prog, plan := collBenchPlan(t)
	for _, want := range []struct {
		procs    int
		alg      collective.Alg
		simNs    int64
		messages int
	}{
		{64, collective.Star, 203_017_507, 2_520},
		{64, collective.Tree, 41_219_469, 2_520},
		{64, collective.Butterfly, 21_375_562, 7_680},
		{1024, collective.Star, 3_280_269_131, 40_920},
		{1024, collective.Tree, 77_518_997, 40_920},
		{1024, collective.Butterfly, 44_410_511, 204_800},
	} {
		res, err := rt.Run(prog, plan, rt.Config{
			Machine: machine.T3D(), Library: "pvm", Procs: want.procs, Collective: want.alg,
		})
		if err != nil {
			t.Fatalf("%d procs, %v: %v", want.procs, want.alg, err)
		}
		if res.Collective != want.alg {
			t.Errorf("%d procs: forced %v, runtime reports %v", want.procs, want.alg, res.Collective)
		}
		if int64(res.ExecTime) != want.simNs || res.Messages != want.messages {
			t.Errorf("%d procs, %v: %d ns / %d messages, want %d / %d",
				want.procs, want.alg, int64(res.ExecTime), res.Messages, want.simNs, want.messages)
		}
	}
}
