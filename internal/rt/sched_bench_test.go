package rt_test

import (
	"runtime"
	"testing"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// schedBenchSrc is a five-point stencil sized so partitions up to 1024
// processors keep blocks no smaller than the ghost width: the per-proc
// compute shrinks with the partition while the scheduling and
// communication machinery per proc stays constant, which is exactly what
// BenchmarkScheduler measures.
const schedBenchSrc = `program sbench;
config var n : integer = 128;
config var iters : integer = 24;
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

func schedBenchPlan(tb testing.TB) (*ir.Program, *comm.Plan) {
	tb.Helper()
	ast, err := zpl.Parse(schedBenchSrc)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		tb.Fatalf("lower: %v", err)
	}
	return prog, comm.BuildPlan(prog, comm.PL())
}

// benchScheduler runs the stencil at one partition size and reports,
// besides wall-clock, the heap bytes each simulated run allocates per
// virtual processor — the number that must stay flat for 4096-proc worlds
// to fit — and the run's whole wall-clock per park request, an upper bound
// on what a park costs that falls toward the real price as the partition
// grows and the per-proc compute shrinks.
//
// The collective algorithm is pinned to star so the metric tracks
// point-to-point scheduler throughput: under auto selection the
// stencil's per-iteration residual reduction would resolve to butterfly
// at power-of-two partitions, whose ~P·log P hop count would swamp the
// stencil traffic the benchmark exists to measure. The collective
// algorithms have their own host-time benchmark, BenchmarkAllreduce.
func benchScheduler(b *testing.B, procs int) {
	b.Helper()
	prog, plan := schedBenchPlan(b)
	cfg := rt.Config{Machine: machine.T3D(), Library: "pvm", Procs: procs, Collective: collective.Star}
	var before, after runtime.MemStats
	var parks int64
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.Run(prog, plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		parks += res.Sched.TotalParks()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perProc := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N) / float64(procs)
	b.ReportMetric(perProc, "bytes/proc")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(parks), "ns/park")
}

func BenchmarkScheduler64(b *testing.B)   { benchScheduler(b, 64) }
func BenchmarkScheduler256(b *testing.B)  { benchScheduler(b, 256) }
func BenchmarkScheduler1024(b *testing.B) { benchScheduler(b, 1024) }

// TestSchedBenchBlocksFit pins the benchmark's geometry assumption: the
// stencil's grid must keep every partition in the benchmark sweep legal
// (blocks at least as wide as the ghost region), so a config edit cannot
// silently turn the 1024-proc benchmark into an error path.
func TestSchedBenchBlocksFit(t *testing.T) {
	prog, plan := schedBenchPlan(t)
	for _, procs := range []int{64, 256, 1024} {
		if _, err := rt.Run(prog, plan, rt.Config{
			Machine: machine.T3D(), Library: "pvm", Procs: procs,
			ConfigVars: map[string]float64{"iters": 1},
		}); err != nil {
			t.Errorf("%d procs: %v", procs, err)
		}
	}
}
