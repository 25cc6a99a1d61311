package experiments

import (
	"fmt"

	"commopt/internal/collective"
	"commopt/internal/grid"
	"commopt/internal/report"
)

// CollectiveTable sweeps the allreduce algorithms across partition sizes
// and both T3D libraries, one row per (library, processors) cell. Every
// eligible algorithm is forced in turn and its measured execution time
// reported; the "selected" column is the algorithm the runtime's auto
// resolution actually executed, and the "predicted" column is the
// cost model's independent choice (collective.Choose through
// cost.Predict). The experiment is itself a differential gate: it fails
// if the two ever disagree, or if the selected algorithm does not have
// the best measured time among the eligible ones — the selection must be
// justified by the cost model AND by the measurement.
//
// The sweep deliberately includes a non-power-of-two partition:
// recursive-doubling butterfly is only defined on power-of-two meshes,
// so eligibility (not just cost) drives the crossover there.
//
// Cells run on the Runner's worker pool and merge positionally; the
// rendered table is byte-identical at any worker count.
func CollectiveTable(r *Runner, benchName string, procCounts []int) (*report.Table, error) {
	if len(procCounts) == 0 {
		return nil, fmt.Errorf("experiments: collective sweep needs at least one proc count")
	}
	// pl on each T3D library.
	ladder := []struct{ lib, exp string }{{"pvm", "pl"}, {"shmem", "pl with shmem"}}
	_, plan, _, err := r.setup(cell{bench: benchName, exp: "pl", procs: procCounts[0]})
	if err != nil {
		return nil, err
	}
	if len(plan.Collectives) == 0 {
		return nil, fmt.Errorf("experiments: benchmark %q performs no reductions", benchName)
	}
	algs := collective.Algorithms()

	// Per (library, procs): the auto-resolution cell, then one cell per
	// eligible forced algorithm.
	var cs []cell
	for _, l := range ladder {
		for _, procs := range procCounts {
			mesh := grid.SquarestMesh(procs)
			cs = append(cs, cell{bench: benchName, exp: l.exp, procs: procs})
			for _, a := range algs {
				if collective.Eligible(a, mesh) {
					cs = append(cs, cell{bench: benchName, exp: l.exp, procs: procs, alg: a})
				}
			}
		}
	}
	outs, err := r.measureAll(cs)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: fmt.Sprintf("allreduce algorithms: %s (T3D), measured across partition and library", benchName),
		Headers: []string{"library", "processors", "mesh",
			"star (s)", "tree (s)", "butterfly (s)", "twolevel (s)", "selected", "predicted"},
	}
	i := 0
	for _, l := range ladder {
		for _, procs := range procCounts {
			mesh := grid.SquarestMesh(procs)
			auto, sel := cs[i], outs[i]
			i++

			// The predictor must independently land on the algorithm the
			// runtime executed: both sides call collective.Choose, and this
			// experiment is where that contract is exercised end to end.
			pred, err := r.predict(auto)
			if err != nil {
				return nil, err
			}
			if pred.Collective != sel.alg {
				return nil, fmt.Errorf("experiments: %s at %d procs (%s): runtime executed %v but cost.Predict selected %v",
					benchName, procs, l.lib, sel.alg, pred.Collective)
			}

			row := []any{l.lib, procs, mesh.String()}
			for _, a := range algs {
				if !collective.Eligible(a, mesh) {
					row = append(row, "-")
					continue
				}
				res := outs[i]
				i++
				if res.alg == sel.alg && res.Time > sel.Time {
					return nil, fmt.Errorf("experiments: %s at %d procs (%s): auto run slower than forced %v (%v > %v)",
						benchName, procs, l.lib, a, sel.Time, res.Time)
				}
				if res.Time < sel.Time {
					return nil, fmt.Errorf("experiments: %s at %d procs (%s): selected %v (%v) loses to forced %v (%v)",
						benchName, procs, l.lib, sel.alg, sel.Time, a, res.Time)
				}
				row = append(row, fmt.Sprintf("%.6f", res.Time.Seconds()))
			}
			row = append(row, sel.alg.String(), pred.Collective.String())
			t.AddRow(row...)
		}
	}
	return t, nil
}

// DefaultCollectiveProcs is the partition sweep of the collective
// experiment: the paper's 64-node regime, a deliberately non-power-of-two
// partition (butterfly ineligible — the crossover is eligibility-driven,
// not cost-driven), and the scheduler's large-partition regime.
var DefaultCollectiveProcs = []int{64, 96, 256, 1024, 4096}
