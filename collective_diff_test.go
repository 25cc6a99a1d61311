package commopt

import (
	"fmt"
	"testing"

	"commopt/internal/collective"
	"commopt/internal/comm"
	"commopt/internal/grid"
)

// TestCollectiveAlgorithmsAgree is the differential gate for the
// collective subsystem: every bundled benchmark and the shipped example,
// at every optimization level, both communication protocols, and
// processor counts from one proc to a 32×32 mesh, must produce
// bit-identical arrays, output and semantic statistics no matter which
// allreduce algorithm carries the reductions. The gather-based
// algorithms fold contributions in strict rank order precisely so that
// floating-point results cannot depend on hop pattern; any divergence
// here means an algorithm reordered the fold or dropped a contribution.
//
// Statistics that legitimately depend on algorithm shape (ExecTime,
// Messages, BytesSent, Breakdown) are deliberately not compared —
// TestPredictMatchesRuntime pins those against the cost model instead.
func TestCollectiveAlgorithmsAgree(t *testing.T) {
	for _, lib := range []string{"pvm", "shmem"} {
		// The suite benchmarks and laplace: programs whose extents, widened
		// for the 32×32 mesh below, still block-distribute.
		for _, tgt := range corpus(t)[:5] {
			for _, lv := range diffLevels {
				plan := tgt.prog.Plan(lv.opts)
				if len(plan.Collectives) == 0 {
					continue // no reductions: algorithm choice can't matter
				}
				// The full 32×32 mesh only at pl: one level is enough to
				// exercise every algorithm at scale, and the small-mesh
				// sweep already covers level × algorithm interactions.
				procCounts := []int{1, 4, 64}
				if lv.name == "pl" && !testing.Short() {
					procCounts = append(procCounts, 1024)
				}
				for _, procs := range procCounts {
					cfg := tgt.cfg
					if procs == 1024 {
						// Benchmark TestConfig sizes are too small to
						// block-distribute over a 32×32 mesh; widen every
						// extent to 64 and keep the iteration counts.
						cfg = make(map[string]float64, len(tgt.cfg))
						for k, v := range tgt.cfg {
							if k == "iters" {
								cfg[k] = v
							} else {
								cfg[k] = 64
							}
						}
					}
					mesh := grid.SquarestMesh(procs)
					ref, err := tgt.prog.Run(plan, RunOptions{
						Library:    lib,
						Procs:      procs,
						Configs:    cfg,
						Collective: "star",
					})
					if err != nil {
						t.Fatalf("%s/%s/%s/p%d: star run: %v", lib, tgt.name, lv.name, procs, err)
					}
					for _, alg := range []collective.Alg{collective.Tree, collective.Butterfly, collective.TwoLevel} {
						if !collective.Eligible(alg, mesh) {
							continue
						}
						t.Run(fmt.Sprintf("%s/%s/%s/p%d/%s", lib, tgt.name, lv.name, procs, alg), func(t *testing.T) {
							got, err := tgt.prog.Run(plan, RunOptions{
								Library:    lib,
								Procs:      procs,
								Configs:    cfg,
								Collective: alg.String(),
							})
							if err != nil {
								t.Fatalf("%s run: %v", alg, err)
							}
							if got.Output != ref.Output {
								t.Errorf("Output differs from star:\n%s:  %q\nstar: %q", alg, got.Output, ref.Output)
							}
							if got.Reductions != ref.Reductions {
								t.Errorf("Reductions: %s %d, star %d", alg, got.Reductions, ref.Reductions)
							}
							if got.DynamicTransfers != ref.DynamicTransfers {
								t.Errorf("DynamicTransfers: %s %d, star %d", alg, got.DynamicTransfers, ref.DynamicTransfers)
							}
							for _, d := range arrayDiffs(got, ref) {
								t.Errorf("vs star: %s", d)
							}
						})
					}
				}
			}
		}
	}
}

// TestCollectiveSchedOracle is TestDifferential's one-worker check on the
// collective-heavy benchmarks with the non-star algorithms forced: multi-hop
// reduction schedules park and resume processors mid-reduction on keyed
// mailbox slots, and the worker pool must not let the order in which those
// hops are delivered reach the simulation.
func TestCollectiveSchedOracle(t *testing.T) {
	for _, bench := range []string{"simple", "tomcatv"} {
		tgt := pick(t, bench)
		plan := tgt.prog.Plan(comm.PL())
		for _, lib := range []string{"pvm", "shmem"} {
			for _, alg := range []string{"tree", "butterfly", "twolevel"} {
				t.Run(fmt.Sprintf("%s/%s/%s", bench, lib, alg), func(t *testing.T) {
					opts := RunOptions{Library: lib, Procs: 64, Configs: tgt.cfg, Collective: alg}
					pool := mustRun(t, tgt.prog, plan, opts)
					opts.SchedWorkers = 1
					sameResult(t, pool, mustRun(t, tgt.prog, plan, opts))
				})
			}
		}
	}
}
