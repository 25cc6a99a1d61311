package experiments

import (
	"fmt"
	"testing"

	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// TestPredictMatchesRuntime is the differential gate between the two
// independent communication accountings: the static predictor
// (internal/cost, derived from grid/machine primitives) and the
// simulated runtime (internal/rt). For every benchmark × optimization
// level × library binding × mesh size, predicted message counts, byte
// volumes, transfer counts, reduction counts and per-processor
// communication overheads must equal the measured values exactly; only
// blocking waits are outside the model. The same sweep also holds the
// protocol checker to zero findings on every shipped plan.
func TestPredictMatchesRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	for _, bench := range programs.Suite() {
		ast, err := zpl.Parse(bench.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", bench.Name, err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatalf("%s: lower: %v", bench.Name, err)
		}
		for _, lv := range comm.Levels() {
			plan := comm.BuildPlan(prog, lv.Opts)
			for _, lib := range []string{"pvm", "shmem"} {
				for _, procs := range []int{1, 4, 64} {
					name := fmt.Sprintf("%s/%s/%s/p%d", bench.Name, lv.Name, lib, procs)
					t.Run(name, func(t *testing.T) {
						cfg := cost.Config{
							Machine:    machine.T3D(),
							Library:    lib,
							Procs:      procs,
							ConfigVars: bench.TestConfig,
						}
						pred, err := cost.Predict(prog, plan, cfg)
						if err != nil {
							t.Fatalf("Predict: %v", err)
						}
						findings, err := cost.Check(prog, plan, cfg, rt.PairChanCap(plan))
						if err != nil {
							t.Fatalf("Check: %v", err)
						}
						for _, f := range findings {
							t.Errorf("protocol finding on shipped plan: %s: %s", f.Rule, f.Msg)
						}
						res, err := rt.Run(prog, plan, rt.Config{
							Machine:      machine.T3D(),
							Library:      lib,
							Procs:        procs,
							ConfigVars:   bench.TestConfig,
							SchedWorkers: 1,
						})
						if err != nil {
							t.Fatalf("rt.Run: %v", err)
						}
						if pred.Messages != res.Messages {
							t.Errorf("messages: predicted %d, measured %d", pred.Messages, res.Messages)
						}
						if pred.BytesSent != res.BytesSent {
							t.Errorf("bytes: predicted %d, measured %d", pred.BytesSent, res.BytesSent)
						}
						if pred.DynamicTransfers != res.DynamicTransfers {
							t.Errorf("dynamic transfers: predicted %d, measured %d", pred.DynamicTransfers, res.DynamicTransfers)
						}
						if pred.Reductions != res.Reductions {
							t.Errorf("reductions: predicted %d, measured %d", pred.Reductions, res.Reductions)
						}
						if len(pred.PerProcComm) != len(res.PerProc) {
							t.Fatalf("per-proc length: predicted %d, measured %d", len(pred.PerProcComm), len(res.PerProc))
						}
						for r := range res.PerProc {
							if pred.PerProcComm[r] != res.PerProc[r].Comm {
								t.Errorf("proc %d comm: predicted %v, measured %v", r, pred.PerProcComm[r], res.PerProc[r].Comm)
							}
							if pred.PerProcMsgs[r] != res.PerProcMsgs[r] {
								t.Errorf("proc %d messages: predicted %d, measured %d", r, pred.PerProcMsgs[r], res.PerProcMsgs[r])
							}
						}
						var msgSum, byteSum int64
						for _, s := range pred.Sites {
							msgSum += s.Messages
							byteSum += s.Bytes
						}
						if msgSum != int64(pred.Messages) || byteSum != pred.BytesSent {
							t.Errorf("per-site breakdown does not sum to totals: %d/%d msgs, %d/%d bytes",
								msgSum, pred.Messages, byteSum, pred.BytesSent)
						}
					})
				}
			}
		}
	}
}

// TestPredictTableQuick exercises the experiment end to end at the
// calibration sizes: every row must carry equal predicted and measured
// message and byte columns.
func TestPredictTableQuick(t *testing.T) {
	r := NewRunner(4)
	r.Quick = true
	r.Workers = 1
	tbl, err := PredictTable(r)
	if err != nil {
		t.Fatalf("PredictTable: %v", err)
	}
	if want := len(BenchNames()) * len(ExpKeys()); len(tbl.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), want)
	}
	for _, row := range tbl.Rows {
		if row[2] != row[3] {
			t.Errorf("%s/%s: predicted %s messages, measured %s", row[0], row[1], row[2], row[3])
		}
		if row[4] != row[5] {
			t.Errorf("%s/%s: predicted %s bytes, measured %s", row[0], row[1], row[4], row[5])
		}
		if row[6] != row[7] {
			t.Errorf("%s/%s: predicted comm %s, measured %s", row[0], row[1], row[6], row[7])
		}
	}
}
