package experiments

import (
	"fmt"
	"io"
	"slices"

	"commopt/internal/comm"
	"commopt/internal/machine"
	"commopt/internal/report"
)

// This file is the RDMA re-run extension: the paper's optimization
// ladder (baseline → rr → cc → pl → pl/max-latency) executed on the
// machine.RDMA model's one-sided verbs binding instead of the 1997
// machines. The question it answers: which of the paper's conclusions
// survive when fixed per-message software costs drop ~100x and the
// fabric gets ~400x faster? Static and dynamic counts are machine-
// independent, so only the execution-time column moves; the committed
// results_rdma.txt pins the answer at full size, testdata/quick_cells.golden
// at quick size.

// RDMAExperiments returns the optimization ladder bound to the RDMA
// cluster's verbs library, in the paper's order.
func RDMAExperiments() []Experiment {
	return []Experiment{
		{Key: "rdma-baseline", Label: "message vectorization on rdma verbs", Options: comm.Baseline(), Library: "verbs", Machine: "rdma"},
		{Key: "rdma-rr", Label: "baseline with removing redundant communication", Options: comm.RR(), Library: "verbs", Machine: "rdma"},
		{Key: "rdma-cc", Label: "rr with combining communication", Options: comm.CC(), Library: "verbs", Machine: "rdma"},
		{Key: "rdma-pl", Label: "cc with pipelining", Options: comm.PL(), Library: "verbs", Machine: "rdma"},
		{Key: "rdma-maxlat", Label: "pl combining for maximum latency hiding", Options: comm.PLMaxLatency(), Library: "verbs", Machine: "rdma"},
	}
}

// RDMAExpKeys returns the rdma experiment keys in ladder order.
func RDMAExpKeys() []string { return keysOf(RDMAExperiments()) }

// rdmaSummary is the cross-benchmark comparison: each optimization level's
// execution time as a percent of its machine's own baseline, on the T3D/PVM
// ladder and the RDMA/verbs ladder side by side. It is the experiment's
// headline table: it shows how much of each optimization's relative gain
// the modern interconnect keeps.
var rdmaSummary = ladder{"RDMA vs T3D: execution time as percent of each machine's baseline",
	[]string{"t3d rr", "t3d cc", "t3d pl", "rdma rr", "rdma cc", "rdma pl"},
	slices.Concat(cols("baseline", execTime, "rr", "cc", "pl"), cols("rdma-baseline", execTime, "rdma-rr", "rdma-cc", "rdma-pl"))}

// rdmaMachine is the rdma report's first table: the machine model's
// parameters.
func rdmaMachine() *report.Table {
	lib := machine.RDMA().Libs["verbs"]
	t := &report.Table{
		Title:   "RDMA cluster model (one-sided verbs put)",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("fixed overhead DR/SR/DN/SV (us)", fmt.Sprintf("%.2f/%.2f/%.2f/%.2f",
		lib.DRCost.Micros(), lib.SRCost.Micros(), lib.DNCost.Micros(), lib.SVCost.Micros()))
	t.AddRow("software per byte (ns, send+recv)", fmt.Sprintf("%.0f", lib.ExposedPerByte()))
	t.AddRow("wire latency (us)", fmt.Sprintf("%.1f", lib.Latency.Micros()))
	t.AddRow("wire per byte (ns)", fmt.Sprintf("%.2f", lib.WirePerByte))
	t.AddRow("combining knee (bytes)", lib.KneeBytes())
	return t
}

// RunRDMA regenerates the rdma experiment report: the machine model's
// parameters, one per-benchmark ladder table, and the cross-machine
// summary. Output is deterministic at any worker count (same argument as
// RunAll: prefetch fills the cache, renders read it sequentially).
func RunRDMA(w io.Writer, r *Runner) error {
	r.prefetch(BenchNames(), append([]string{"baseline", "rr", "cc", "pl"}, RDMAExpKeys()...))
	return walk(w, r, "rdma")
}
