package experiments

import (
	"fmt"
	"io"

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
func RDMAExpKeys() []string {
	var out []string
	for _, e := range RDMAExperiments() {
		out = append(out, e.Key)
	}
	return out
}

// RDMATable measures one benchmark under every rdma experiment: absolute
// static count, dynamic count, execution time, and the time as a percent
// of the rdma baseline (the gain column the T3D tables leave implicit,
// made explicit here because it is the number the machine comparison is
// about).
func RDMATable(r *Runner, benchName string) (*report.Table, error) {
	title, err := resultsTitle(r, benchName)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "RDMA results for " + title,
		Headers: []string{"experiment", "static count", "dynamic count", "execution time (s)", "% of rdma baseline"},
	}
	r.prefetch([]string{benchName}, RDMAExpKeys())
	base, err := r.Cell(benchName, "rdma-baseline")
	if err != nil {
		return nil, err
	}
	for _, e := range RDMAExperiments() {
		c, err := r.Cell(benchName, e.Key)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.Key, c.Static, c.Dynamic, fmt.Sprintf("%.6f", c.Time.Seconds()), pct64(int64(c.Time), int64(base.Time)))
	}
	return t, nil
}

// RDMASummary renders the cross-benchmark comparison: each optimization
// level's execution time as a percent of its machine's own baseline, on
// the T3D/PVM ladder and the RDMA/verbs ladder side by side. This is the
// experiment's headline table — it shows how much of each optimization's
// relative gain the modern interconnect keeps.
func RDMASummary(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title: "RDMA vs T3D: execution time as percent of each machine's baseline",
		Headers: []string{"program",
			"t3d rr", "t3d cc", "t3d pl",
			"rdma rr", "rdma cc", "rdma pl"},
	}
	t3dKeys := []string{"baseline", "rr", "cc", "pl"}
	r.prefetch(BenchNames(), append(append([]string{}, t3dKeys...), RDMAExpKeys()...))
	for _, name := range BenchNames() {
		t3dBase, err := r.Cell(name, "baseline")
		if err != nil {
			return nil, err
		}
		rdmaBase, err := r.Cell(name, "rdma-baseline")
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, k := range []string{"rr", "cc", "pl"} {
			c, err := r.Cell(name, k)
			if err != nil {
				return nil, err
			}
			row = append(row, pct64(int64(c.Time), int64(t3dBase.Time)))
		}
		for _, k := range []string{"rdma-rr", "rdma-cc", "rdma-pl"} {
			c, err := r.Cell(name, k)
			if err != nil {
				return nil, err
			}
			row = append(row, pct64(int64(c.Time), int64(rdmaBase.Time)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RunRDMA regenerates the rdma experiment report: the machine model's
// parameters, one per-benchmark ladder table, and the cross-machine
// summary. Output is deterministic at any worker count (same argument as
// RunAll: prefetch fills the cache, renders read it sequentially).
func RunRDMA(w io.Writer, r *Runner) error {
	m := machine.RDMA()
	lib := m.Libs["verbs"]
	p := &report.Table{
		Title:   "RDMA cluster model (one-sided verbs put)",
		Headers: []string{"parameter", "value"},
	}
	p.AddRow("fixed overhead DR/SR/DN/SV (us)", fmt.Sprintf("%.2f/%.2f/%.2f/%.2f",
		lib.DRCost.Micros(), lib.SRCost.Micros(), lib.DNCost.Micros(), lib.SVCost.Micros()))
	p.AddRow("software per byte (ns, send+recv)", fmt.Sprintf("%.0f", lib.ExposedPerByte()))
	p.AddRow("wire latency (us)", fmt.Sprintf("%.1f", lib.Latency.Micros()))
	p.AddRow("wire per byte (ns)", fmt.Sprintf("%.2f", lib.WirePerByte))
	p.AddRow("combining knee (bytes)", lib.KneeBytes())
	p.Render(w)

	r.prefetch(BenchNames(), append(append([]string{}, "baseline", "rr", "cc", "pl"), RDMAExpKeys()...))
	for _, name := range BenchNames() {
		t, err := RDMATable(r, name)
		if err != nil {
			return err
		}
		t.Render(w)
	}
	s, err := RDMASummary(r)
	if err != nil {
		return err
	}
	s.Render(w)
	return nil
}
