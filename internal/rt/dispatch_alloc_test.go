package rt_test

import (
	"runtime"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// TestDispatchSteadyStateAllocs pins the property slot-bound dispatch
// exists for: once every site has met its regions, one more iteration of
// a wavefront program allocates (almost) nothing per processor — no
// region spans, no slot or table growth. Doubling tomcatv's iteration
// count isolates the steady state: set-up and first-sweep compilation are
// the same in both runs and cancel. Before dispatch sites every
// literal-bound call and statement allocated its region's spans, several
// hundred mallocs per iteration per processor at this size.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const procs, k = 16, 3
	bench, err := programs.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	ast, err := zpl.Parse(bench.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	for _, c := range []struct {
		name string
		opts comm.Options
		lib  string
	}{{"pl/shmem", comm.PL(), "shmem"}, {"baseline/pvm", comm.Baseline(), "pvm"}} {
		plan := comm.BuildPlan(prog, c.opts)
		mallocs := func(iters float64) uint64 {
			cfg := rt.Config{Machine: machine.T3D(), Library: c.lib, Procs: procs,
				ConfigVars: map[string]float64{"n": 32, "iters": iters}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := rt.Run(prog, plan, cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(k) // warm process-wide pools
		short, long := mallocs(k), mallocs(2*k)
		perIter := (float64(long) - float64(short)) / (k * procs)
		t.Logf("%s: %d mallocs at iters=%d, %d at iters=%d: %.1f per extra iteration per processor", c.name, short, k, long, 2*k, perIter)
		if perIter > 16 {
			t.Errorf("%s: %.1f mallocs per extra iteration per processor, want <= 16", c.name, perIter)
		}
	}
}
