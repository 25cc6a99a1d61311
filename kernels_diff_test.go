package commopt

import (
	"fmt"
	"os"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/programs"
)

// TestKernelsMatchInterpreter is the differential gate for the compiled
// kernel engine: every bundled benchmark and the shipped example, at every
// optimization level, must produce bit-identical arrays and identical
// simulated statistics whether array statements run on compiled kernels or
// on the closure interpreter (RunOptions.ForceInterpreter). Virtual time
// is charged per statement as size*Flops, so any divergence here means the
// kernels changed semantics, not just speed.
func TestKernelsMatchInterpreter(t *testing.T) {
	levels := []struct {
		name string
		opts comm.Options
	}{
		{"baseline", comm.Baseline()},
		{"rr", comm.RR()},
		{"cc", comm.CC()},
		{"pl", comm.PL()},
		{"pl-maxlat", comm.PLMaxLatency()},
		{"pl-hoist", comm.Options{RemoveRedundant: true, Combine: true, Pipeline: true, HoistInvariant: true}},
	}

	type target struct {
		name string
		prog *Program
		cfg  map[string]float64
	}
	var targets []target
	for _, b := range programs.Suite() {
		prog, err := Compile(b.Source)
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		targets = append(targets, target{b.Name, prog, b.TestConfig})
	}
	src, err := os.ReadFile("examples/zpl/laplace.zpl")
	if err != nil {
		t.Fatal(err)
	}
	lap, err := Compile(string(src))
	if err != nil {
		t.Fatalf("laplace: compile: %v", err)
	}
	targets = append(targets, target{"laplace", lap, map[string]float64{"n": 16, "iters": 3}})
	targets = append(targets, target{"sweep_updown", compileExample(t, "examples/zpl/sweep_updown.zpl"), map[string]float64{"n": 12, "iters": 3}})
	targets = append(targets, target{"scalar_ops", compileExample(t, "examples/zpl/scalar_ops.zpl"), map[string]float64{"n": 12, "iters": 3}})
	for _, tgt := range targets[:len(targets):len(targets)] {
		targets = append(targets, target{tgt.name + "-uneven", tgt.prog, unevenSize(tgt.cfg)})
	}

	for _, tgt := range targets {
		for _, lv := range levels {
			plan := tgt.prog.Plan(lv.opts)
			for _, procs := range []int{1, 4, 64} {
				t.Run(fmt.Sprintf("%s/%s/p%d", tgt.name, lv.name, procs), func(t *testing.T) {
					run := func(forceInterp bool) RunOptions {
						return RunOptions{
							Procs:            procs,
							Configs:          tgt.cfg,
							ForceInterpreter: forceInterp,
						}
					}
					kern, err := tgt.prog.Run(plan, run(false))
					if err != nil {
						t.Fatalf("kernel run: %v", err)
					}
					oracle, err := tgt.prog.Run(plan, run(true))
					if err != nil {
						t.Fatalf("interpreter run: %v", err)
					}
					if kern.ExecTime != oracle.ExecTime {
						t.Errorf("ExecTime: kernels %v, interpreter %v", kern.ExecTime, oracle.ExecTime)
					}
					if kern.DynamicTransfers != oracle.DynamicTransfers {
						t.Errorf("DynamicTransfers: kernels %d, interpreter %d", kern.DynamicTransfers, oracle.DynamicTransfers)
					}
					if kern.Messages != oracle.Messages {
						t.Errorf("Messages: kernels %d, interpreter %d", kern.Messages, oracle.Messages)
					}
					if kern.BytesSent != oracle.BytesSent {
						t.Errorf("BytesSent: kernels %d, interpreter %d", kern.BytesSent, oracle.BytesSent)
					}
					if kern.Reductions != oracle.Reductions {
						t.Errorf("Reductions: kernels %d, interpreter %d", kern.Reductions, oracle.Reductions)
					}
					if kern.Output != oracle.Output {
						t.Errorf("Output differs:\nkernels:     %q\ninterpreter: %q", kern.Output, oracle.Output)
					}
					for _, a := range tgt.prog.IR.Arrays {
						if d := kern.MaxAbsDiff(oracle, a.Name); d != 0 {
							t.Errorf("array %s: max abs diff %g, want bit-identical", a.Name, d)
						}
					}
				})
			}
		}
	}
}
