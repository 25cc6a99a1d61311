package experiments

import (
	"fmt"

	"commopt/internal/report"
)

// Scaling runs one benchmark at a fixed problem size across a sweep of
// partition sizes — an extension experiment the paper's framework invites
// but does not include (its runs all use 64-node partitions). The table
// reports simulated time, speedup over the smallest partition, and the
// critical path's communication fraction, which shows the
// surface-to-volume effect that makes the optimizations matter more as
// partitions grow.
//
// The partition sizes are pl cells on the Runner's worker pool and merge
// positionally: the rows, and the speedup base taken from the first row,
// come out identical to a serial sweep.
func Scaling(r *Runner, benchName string, procCounts []int) (*report.Table, error) {
	cs := make([]cell, len(procCounts))
	for i, procs := range procCounts {
		cs[i] = cell{bench: benchName, exp: "pl", procs: procs}
	}
	outs, err := r.measureAll(cs)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("scaling: %s (pl, T3D/PVM) across partition sizes", benchName),
		Headers: []string{"processors", "mesh", "time (s)", "speedup", "comm+wait share"},
	}
	base := outs[0].Time.Seconds()
	for i, o := range outs {
		secs := o.Time.Seconds()
		t.AddRow(procCounts[i], o.mesh.String(),
			fmt.Sprintf("%.6f", secs),
			fmt.Sprintf("%.2fx", base/secs),
			fmt.Sprintf("%.0f%%", 100*o.breakdown.CommFraction()))
	}
	return t, nil
}

// DefaultScalingProcs is the partition sweep used by the icpp97 tool.
var DefaultScalingProcs = []int{1, 4, 16, 64}
