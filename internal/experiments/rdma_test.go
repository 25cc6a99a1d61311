package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestRDMATableDeterministic pins that the RDMA ladder is a pure
// function of its inputs: two fresh runners must render byte-identical
// output. The cells run concurrently inside each runner, so this also
// guards the worker pool against scheduling-dependent results.
func TestRDMATableDeterministic(t *testing.T) {
	render := func() []byte {
		r := NewRunner(16)
		r.Quick = true
		var buf bytes.Buffer
		tab, err := RDMATable(r, "tomcatv")
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("RDMA table not deterministic:\n%s\n--- vs ---\n%s", a, b)
	}
}

// TestEmitRDMABenchJSON regenerates BENCH_rdma.json, the checked-in
// snapshot of the RDMA ladder at the quick calibration sizes. Every
// leaf is deterministic (simulated time and static/dynamic counts), so
// cmd/benchdiff holds the whole file to exact equality. Skipped unless
// BENCH_RDMA_JSON names the output file:
//
//	BENCH_RDMA_JSON=$PWD/BENCH_rdma.json go test ./internal/experiments -run TestEmitRDMABenchJSON -count=1
func TestEmitRDMABenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_RDMA_JSON")
	if path == "" {
		t.Skip("set BENCH_RDMA_JSON=<output path> to emit RDMA ladder numbers")
	}
	r := NewRunner(0)
	r.Quick = true
	type row struct {
		Bench      string  `json:"bench"`
		Experiment string  `json:"experiment"`
		Static     int     `json:"static_count"`
		Dynamic    int     `json:"dynamic_count"`
		SimSeconds float64 `json:"sim_seconds"`
	}
	report := struct {
		Benchmark string `json:"benchmark"`
		Procs     int    `json:"procs"`
		Quick     bool   `json:"quick"`
		Rows      []row  `json:"rows"`
	}{Benchmark: "RDMA ladder", Procs: r.Procs, Quick: true}
	r.prefetch(BenchNames(), RDMAExpKeys())
	for _, bench := range BenchNames() {
		for _, key := range RDMAExpKeys() {
			c, err := r.Cell(bench, key)
			if err != nil {
				t.Fatal(err)
			}
			report.Rows = append(report.Rows, row{
				Bench:      bench,
				Experiment: key,
				Static:     c.Static,
				Dynamic:    c.Dynamic,
				SimSeconds: c.Time.Seconds(),
			})
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
