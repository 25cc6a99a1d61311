package experiments

import (
	"fmt"

	"commopt/internal/report"
)

// PredictTable compares the static cost model (internal/cost) against
// the measured simulation for every benchmark × experiment: predicted
// and measured message counts, byte volumes and critical-path
// communication overheads side by side. For the statically predictable
// benchmarks the count columns agree exactly and the comm columns agree
// exactly too — blocking waits, the schedule-dependent remainder, are
// deliberately outside the model (DESIGN.md §15).
func PredictTable(r *Runner) (*report.Table, error) {
	keys := ExpKeys()
	r.prefetch(BenchNames(), keys)
	t := &report.Table{
		Title:   fmt.Sprintf("Predicted vs measured communication (T3D, %d processors)", r.Procs),
		Note:    "comm is the critical-path software overhead; waits are schedule-dependent and not modeled",
		Headers: []string{"benchmark", "experiment", "msgs pred", "msgs meas", "bytes pred", "bytes meas", "comm pred", "comm meas"},
	}
	for _, bench := range BenchNames() {
		for _, key := range keys {
			pred, err := r.predict(r.gridCell(bench, key))
			if err != nil {
				return nil, err
			}
			cell, err := r.Cell(bench, key)
			if err != nil {
				return nil, err
			}
			t.AddRow(bench, key,
				pred.Messages, cell.Messages,
				pred.BytesSent, cell.Bytes,
				pred.CommTime().String(), cell.Comm.String())
		}
	}
	return t, nil
}
