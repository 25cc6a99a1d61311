package commopt

import (
	"fmt"
	"os"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/programs"
)

// TestFusionMatchesUnfused is the differential gate for cross-statement
// kernel fusion: every bundled benchmark and the shipped example, at every
// optimization level, on both library bindings, must produce bit-identical
// arrays and identical simulated statistics whether adjacent array
// statements execute as one fused sweep or individually
// (RunOptions.ForceNoFusion). Fusion only interchanges the loop order of
// statically proven-independent statements; virtual time is charged per
// member statement either way, so any divergence means the legality
// analysis or the fused store paths are wrong.
func TestFusionMatchesUnfused(t *testing.T) {
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

	libs := []string{"pvm", "shmem"}
	procCounts := []int{1, 4, 64}
	if testing.Short() {
		libs = []string{"pvm"}
		procCounts = []int{1, 4}
	}

	for _, tgt := range targets {
		for _, lv := range levels {
			plan := tgt.prog.Plan(lv.opts)
			for _, lib := range libs {
				for _, procs := range procCounts {
					t.Run(fmt.Sprintf("%s/%s/%s/p%d", tgt.name, lv.name, lib, procs), func(t *testing.T) {
						run := func(noFuse bool) RunOptions {
							return RunOptions{
								Library:       lib,
								Procs:         procs,
								Configs:       tgt.cfg,
								ForceNoFusion: noFuse,
							}
						}
						fused, err := tgt.prog.Run(plan, run(false))
						if err != nil {
							t.Fatalf("fused run: %v", err)
						}
						oracle, err := tgt.prog.Run(plan, run(true))
						if err != nil {
							t.Fatalf("unfused run: %v", err)
						}
						if fused.ExecTime != oracle.ExecTime {
							t.Errorf("ExecTime: fused %v, unfused %v", fused.ExecTime, oracle.ExecTime)
						}
						if fused.DynamicTransfers != oracle.DynamicTransfers {
							t.Errorf("DynamicTransfers: fused %d, unfused %d", fused.DynamicTransfers, oracle.DynamicTransfers)
						}
						if fused.Messages != oracle.Messages {
							t.Errorf("Messages: fused %d, unfused %d", fused.Messages, oracle.Messages)
						}
						if fused.BytesSent != oracle.BytesSent {
							t.Errorf("BytesSent: fused %d, unfused %d", fused.BytesSent, oracle.BytesSent)
						}
						if fused.Reductions != oracle.Reductions {
							t.Errorf("Reductions: fused %d, unfused %d", fused.Reductions, oracle.Reductions)
						}
						if fused.Output != oracle.Output {
							t.Errorf("Output differs:\nfused:   %q\nunfused: %q", fused.Output, oracle.Output)
						}
						for _, a := range tgt.prog.IR.Arrays {
							if d := fused.MaxAbsDiff(oracle, a.Name); d != 0 {
								t.Errorf("array %s: max abs diff %g, want bit-identical", a.Name, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestOverlapMatchesSynchronous is the differential gate for host-side
// comm/compute overlap: a problem large enough to cross the async-send
// threshold must produce identical results and statistics whether large
// packs run on a goroutine or inline (RunOptions.NoOverlap). Overlap
// defers only host work — every virtual-time value is computed before the
// pack leaves the coroutine — so any divergence means a real data race or
// a broken join point, which is also why CI runs this test under -race.
func TestOverlapMatchesSynchronous(t *testing.T) {
	src, err := os.ReadFile("examples/zpl/laplace.zpl")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// n=2048 on 4 procs leaves 1024x2048 blocks: a combined row-halo
	// transfer packs 2048+ doubles, comfortably past the overlap
	// threshold on every level that pipelines.
	cfg := map[string]float64{"n": 2048, "iters": 3}
	for _, lv := range []struct {
		name string
		opts comm.Options
	}{
		{"baseline", comm.Baseline()},
		{"pl", comm.PL()},
	} {
		plan := prog.Plan(lv.opts)
		for _, lib := range []string{"pvm", "shmem"} {
			t.Run(lv.name+"/"+lib, func(t *testing.T) {
				over, err := prog.Run(plan, RunOptions{Library: lib, Procs: 4, Configs: cfg})
				if err != nil {
					t.Fatalf("overlap run: %v", err)
				}
				sync, err := prog.Run(plan, RunOptions{Library: lib, Procs: 4, Configs: cfg, NoOverlap: true})
				if err != nil {
					t.Fatalf("synchronous run: %v", err)
				}
				if over.ExecTime != sync.ExecTime {
					t.Errorf("ExecTime: overlap %v, synchronous %v", over.ExecTime, sync.ExecTime)
				}
				if over.Messages != sync.Messages {
					t.Errorf("Messages: overlap %d, synchronous %d", over.Messages, sync.Messages)
				}
				if over.BytesSent != sync.BytesSent {
					t.Errorf("BytesSent: overlap %d, synchronous %d", over.BytesSent, sync.BytesSent)
				}
				if over.Output != sync.Output {
					t.Errorf("Output differs:\noverlap:     %q\nsynchronous: %q", over.Output, sync.Output)
				}
				for _, a := range prog.IR.Arrays {
					if d := over.MaxAbsDiff(sync, a.Name); d != 0 {
						t.Errorf("array %s: max abs diff %g, want bit-identical", a.Name, d)
					}
				}
			})
		}
	}
}
