package experiments

import (
	"fmt"

	"commopt/internal/programs"
	"commopt/internal/report"
)

// ScalingLaw sweeps one benchmark across partition sizes well beyond the
// paper's 64-node runs — the regime the M:N scheduler exists for — and
// crosses the sweep with problem size and optimization level. The paper
// stops where its hardware stopped; the simulated machine does not, so
// this extension shows how the optimizations' payoff grows with the
// partition (communication surface shrinks slower than compute volume)
// and where each problem size stops scaling entirely.
//
// Every (grid, procs, level) cell runs on the Runner's worker pool and
// merges positionally; the rendered table is byte-identical at any worker
// count. Inside each run the M:N scheduler keeps thousands of virtual
// processors on a fixed worker pool, and the Runner gives each cell one
// scheduler worker when it runs cells concurrently, so the sweep itself
// does not oversubscribe the host.
func ScalingLaw(r *Runner, benchName string, procCounts []int) (*report.Table, error) {
	if len(procCounts) == 0 {
		return nil, fmt.Errorf("experiments: scaling law needs at least one proc count")
	}
	bench, err := programs.ByName(benchName)
	if err != nil {
		return nil, err
	}
	n, ok := r.configVars(bench)["n"]
	if !ok {
		return nil, fmt.Errorf("experiments: benchmark %q has no grid config n", benchName)
	}

	// Two problem sizes: the benchmark's own (no override) and its double
	// (strong scaling at each; the pair shows the weak-scaling shift of
	// the crossover). Each (size, procs) pair is a baseline and a pl cell.
	var cs []cell
	for _, size := range []float64{0, 2 * n} {
		for _, procs := range procCounts {
			for _, key := range []string{"baseline", "pl"} {
				cs = append(cs, cell{bench: benchName, exp: key, procs: procs, n: size})
			}
		}
	}
	outs, err := r.measureAll(cs)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: fmt.Sprintf("scaling law: %s (T3D/PVM), baseline vs pl across partition and problem size", benchName),
		Headers: []string{"grid", "processors", "mesh",
			"baseline (s)", "pl (s)", "pl gain", "pl comm+wait share"},
	}
	for i := 0; i < len(outs); i += 2 {
		size := cs[i].n
		if size == 0 {
			size = n
		}
		bl, pl := outs[i], outs[i+1]
		t.AddRow(fmt.Sprintf("%gx%g", size, size), cs[i].procs, bl.mesh.String(),
			fmt.Sprintf("%.6f", bl.Time.Seconds()),
			fmt.Sprintf("%.6f", pl.Time.Seconds()),
			fmt.Sprintf("%.2fx", bl.Time.Seconds()/pl.Time.Seconds()),
			fmt.Sprintf("%.0f%%", 100*pl.breakdown.CommFraction()))
	}
	return t, nil
}

// DefaultScalingLawProcs is the partition sweep of the scaling-law
// experiment: the paper's regime ends where this one begins.
var DefaultScalingLawProcs = []int{256, 512, 1024, 2048, 4096}
