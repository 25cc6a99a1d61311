package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickCellsGolden holds every number the product prints to the
// nanosecond: the 24 paper cells and the 20 RDMA cells at quick sizes on
// 64 processors, one tab-separated line each (bench, experiment, static,
// dynamic, messages, bytes, time_ns, comm_ns), compared byte for byte.
// Virtual time reads no host clock, so any difference is a change to the
// optimizer, the runtime or a machine parameter. Regenerate with
// go test ./internal/experiments -run TestQuickCellsGolden -update.
func TestQuickCellsGolden(t *testing.T) {
	const golden = "testdata/quick_cells.golden"
	r := runner(t)
	keys := append(ExpKeys(), RDMAExpKeys()...)
	r.prefetch(BenchNames(), keys)
	var got []string
	for _, bench := range BenchNames() {
		for _, key := range keys {
			c, err := r.Cell(bench, key)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d",
				bench, key, c.Static, c.Dynamic, c.Messages, c.Bytes, int64(c.Time), int64(c.Comm)))
		}
	}
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/experiments -run TestQuickCellsGolden -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d cells, the product has %d", golden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell differs (bench experiment static dynamic messages bytes time_ns comm_ns)\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
