package rt

import (
	"testing"

	"commopt/internal/comm"
	"commopt/internal/critpath"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/trace"
	"commopt/internal/zpl"
)

// traceBenchSrc is a communication-heavy stencil loop: enough transfers,
// waits and statements that instrumentation cost would show, small enough
// that one run is microseconds.
const traceBenchSrc = `program tbench;
config var n : integer = 32;
config var iters : integer = 8;
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

// benchObserved runs traceBenchSrc with the given observability settings
// applied to the base config. withTrace and critpath allocate a fresh
// recorder per iteration, matching how an instrumented run is actually
// invoked.
func benchObserved(b *testing.B, withTrace, profile, metrics, cpath bool) {
	b.Helper()
	ast, err := zpl.Parse(traceBenchSrc)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		b.Fatalf("lower: %v", err)
	}
	plan := comm.BuildPlan(prog, comm.PL())
	cfg := Config{Machine: machine.T3D(), Library: "pvm", Procs: 4, Profile: profile, Metrics: metrics}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if withTrace {
			cfg.Trace = trace.NewRecorder()
		}
		if cpath {
			cfg.Critpath = critpath.NewRecorder()
		}
		if _, err := Run(prog, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOff is the disabled fast path: every instrumentation
// point reduces to a nil pointer check.
func BenchmarkTraceOff(b *testing.B) { benchObserved(b, false, false, false, false) }

// BenchmarkTraceOn records every event kind into per-processor rings.
func BenchmarkTraceOn(b *testing.B) { benchObserved(b, true, false, false, false) }

// BenchmarkProfileOn accumulates the per-callsite profile only.
func BenchmarkProfileOn(b *testing.B) { benchObserved(b, false, true, false, false) }

// BenchmarkMetricsOn feeds the per-processor metric registries only.
func BenchmarkMetricsOn(b *testing.B) { benchObserved(b, false, false, true, false) }

// BenchmarkCritpathOn records the happens-before log for the exact
// critical-path analyzer only.
func BenchmarkCritpathOn(b *testing.B) { benchObserved(b, false, false, false, true) }
