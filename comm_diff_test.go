package commopt

import (
	"fmt"
	"maps"
	"os"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/programs"
)

// compileExample compiles a shipped example program for the differential
// suites. sweep_updown.zpl joins their corpora for its non-repeating
// literal-bound sweeps, which the benchmarks' fixed-order wavefronts never
// produce; scalar_ops.zpl for a scalar on either side of every operator and
// for -0.0, Inf and NaN in the data.
func compileExample(t *testing.T, path string) *Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatalf("%s: compile: %v", path, err)
	}
	return prog
}

// unevenSize returns cfg at a problem size that no mesh side of the
// differential suites' processor counts divides (29 = 2·14+1 = 8·3+5), so
// blocks come in two lengths and processors fall into more shape classes
// (internal/rt/class.go) than corners, edges and interior; at 64 processors
// classes still have several members, which share compiled kernels and
// schedules.
func unevenSize(cfg map[string]float64) map[string]float64 {
	c := maps.Clone(cfg)
	c["n"] = 29
	return c
}

// TestCommMatchesLegacy is the differential gate for the compiled
// communication engine: every bundled benchmark and the shipped example,
// at every optimization level, must produce bit-identical arrays and
// identical simulated statistics whether messages travel through the
// pooled pack/unpack engine or the legacy per-rectangle path
// (RunOptions.ForceLegacyComm). The engines share the virtual-time cost
// model, so any divergence — in data, message counts, bytes, or any
// processor's time breakdown — means the pack schedules or the buffer
// recycling changed semantics, not just speed.
func TestCommMatchesLegacy(t *testing.T) {
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

	// The two libraries exercise both recycling protocols: pvm returns
	// buffers over the readyFrom channel non-blockingly, shmem piggybacks
	// them on rendezvous tokens.
	for _, lib := range []string{"pvm", "shmem"} {
		for _, tgt := range targets {
			for _, lv := range levels {
				plan := tgt.prog.Plan(lv.opts)
				for _, procs := range []int{1, 4, 64} {
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", lib, tgt.name, lv.name, procs), func(t *testing.T) {
						run := func(legacy bool) RunOptions {
							return RunOptions{
								Library:         lib,
								Procs:           procs,
								Configs:         tgt.cfg,
								ForceLegacyComm: legacy,
							}
						}
						pooled, err := tgt.prog.Run(plan, run(false))
						if err != nil {
							t.Fatalf("pooled run: %v", err)
						}
						oracle, err := tgt.prog.Run(plan, run(true))
						if err != nil {
							t.Fatalf("legacy run: %v", err)
						}
						if pooled.ExecTime != oracle.ExecTime {
							t.Errorf("ExecTime: pooled %v, legacy %v", pooled.ExecTime, oracle.ExecTime)
						}
						if pooled.DynamicTransfers != oracle.DynamicTransfers {
							t.Errorf("DynamicTransfers: pooled %d, legacy %d", pooled.DynamicTransfers, oracle.DynamicTransfers)
						}
						if pooled.Messages != oracle.Messages {
							t.Errorf("Messages: pooled %d, legacy %d", pooled.Messages, oracle.Messages)
						}
						if pooled.BytesSent != oracle.BytesSent {
							t.Errorf("BytesSent: pooled %d, legacy %d", pooled.BytesSent, oracle.BytesSent)
						}
						if pooled.Reductions != oracle.Reductions {
							t.Errorf("Reductions: pooled %d, legacy %d", pooled.Reductions, oracle.Reductions)
						}
						if pooled.Output != oracle.Output {
							t.Errorf("Output differs:\npooled: %q\nlegacy: %q", pooled.Output, oracle.Output)
						}
						if pooled.Breakdown != oracle.Breakdown {
							t.Errorf("Breakdown: pooled %+v, legacy %+v", pooled.Breakdown, oracle.Breakdown)
						}
						for r := range pooled.PerProc {
							if pooled.PerProc[r] != oracle.PerProc[r] {
								t.Errorf("PerProc[%d]: pooled %+v, legacy %+v", r, pooled.PerProc[r], oracle.PerProc[r])
							}
						}
						for _, a := range tgt.prog.IR.Arrays {
							if d := pooled.MaxAbsDiff(oracle, a.Name); d != 0 {
								t.Errorf("array %s: max abs diff %g, want bit-identical", a.Name, d)
							}
						}
					})
				}
			}
		}
	}
}
