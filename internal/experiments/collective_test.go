package experiments

import (
	"bytes"
	"testing"
)

// TestCollectiveTable runs the allreduce sweep at small partitions. The
// assertions that matter — runtime auto resolution equals cost.Predict's
// choice, and the selected algorithm has the best measured time among
// the eligible ones — live inside CollectiveTable itself (the experiment
// errors out if either fails), so the test exercises both a power-of-two
// mesh (butterfly eligible) and a non-power-of-two one (butterfly must
// render as "-") and checks the table shape.
func TestCollectiveTable(t *testing.T) {
	tbl, err := CollectiveTable(sweepRunner(1), "simple", []int{16, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // 2 libs x 2 partitions
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	const butterflyCol = 5
	for _, row := range tbl.Rows {
		procs, butterfly := row[1], row[butterflyCol]
		switch procs {
		case "16":
			if butterfly == "-" {
				t.Errorf("16 procs: butterfly marked ineligible on a power-of-two mesh")
			}
		case "12":
			if butterfly != "-" {
				t.Errorf("12 procs: butterfly column %q, want \"-\" (4x3 mesh is not power-of-two)", butterfly)
			}
		default:
			t.Errorf("unexpected processors column %q", procs)
		}
		if sel, pred := row[len(row)-2], row[len(row)-1]; sel != pred {
			t.Errorf("%s procs: selected %q != predicted %q (CollectiveTable should have errored)", procs, sel, pred)
		}
	}
}

// TestCollectiveTableDeterministicAcrossWorkers: like the other
// experiment sweeps, the concurrent cell runs must merge positionally so
// the rendered table is byte-identical at any worker count.
func TestCollectiveTableDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		tbl, err := CollectiveTable(sweepRunner(workers), "simple", []int{16, 12})
		if err != nil {
			t.Fatalf("CollectiveTable with %d workers: %v", workers, err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		return buf.String()
	}
	serial := render(1)
	parallel := render(3)
	if serial != parallel {
		t.Errorf("CollectiveTable output differs between 1 and 3 workers:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
