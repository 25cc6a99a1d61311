package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"commopt/internal/comm"
)

// TestRunAllDeterministicAcrossWorkers is the determinism gate for the
// parallel harness: the complete figure and table output must be
// byte-identical whether the cells are computed serially or prefetched on
// a worker pool, and, as icpp97 -quick runs it (64 processors, a worker
// per GOMAXPROCS), whatever GOMAXPROCS is.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite five times")
	}
	render := func(procs, workers, gomaxprocs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs)) // 0 leaves it be
		r := NewRunner(procs)
		r.Quick = true
		r.Workers = workers
		var buf bytes.Buffer
		if err := RunAll(&buf, r); err != nil {
			t.Fatalf("RunAll on %d processors with %d workers at GOMAXPROCS %d: %v", procs, workers, runtime.GOMAXPROCS(0), err)
		}
		return buf.String()
	}
	serial := render(4, 1, 0)
	if parallel := render(4, 3, 0); serial != parallel {
		t.Errorf("RunAll output differs between 1 and 3 workers:\nserial %d bytes, parallel %d bytes", len(serial), len(parallel))
	}
	one := render(64, 0, 1)
	for _, n := range []int{2, 8} {
		if got := render(64, 0, n); got != one {
			t.Errorf("RunAll output on 64 processors differs between GOMAXPROCS 1 and %d:\n%d bytes, %d bytes", n, len(one), len(got))
		}
	}
}

// sweepRunner is a fresh quick-size Runner for the sweep experiments.
func sweepRunner(workers int) *Runner {
	r := NewRunner(0)
	r.Quick, r.Workers = true, workers
	return r
}

// TestScalingDeterministicAcrossWorkers checks the concurrent partition
// sweep merges its rows positionally: same table bytes at any worker
// count, including the speedup column based on the first row.
func TestScalingDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		tbl, err := Scaling(sweepRunner(workers), "swm", []int{1, 4, 16})
		if err != nil {
			t.Fatalf("Scaling with %d workers: %v", workers, err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		return buf.String()
	}
	serial := render(1)
	parallel := render(3)
	if serial != parallel {
		t.Errorf("Scaling output differs between 1 and 3 workers:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestScalingLaw: the grid × partition × level sweep renders one row per
// (grid, partition), the same bytes at any worker count, and refuses an
// empty partition list or an unknown benchmark.
func TestScalingLaw(t *testing.T) {
	render := func(workers int) string {
		tbl, err := ScalingLaw(sweepRunner(workers), "simple", []int{4, 16})
		if err != nil {
			t.Fatalf("ScalingLaw with %d workers: %v", workers, err)
		}
		if len(tbl.Rows) != 4 { // 2 grids x 2 partitions
			t.Fatalf("rows = %d, want 4", len(tbl.Rows))
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		return buf.String()
	}
	if serial, parallel := render(1), render(2); serial != parallel {
		t.Errorf("ScalingLaw output differs between 1 and 2 workers:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if _, err := ScalingLaw(sweepRunner(1), "simple", nil); err == nil {
		t.Error("empty partition list accepted")
	}
	if _, err := ScalingLaw(sweepRunner(1), "nothing", []int{4}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestCellSharedAcrossConcurrentRequests checks the once-per-cell cache:
// concurrent requests for the same cell return the same measurement.
func TestCellSharedAcrossConcurrentRequests(t *testing.T) {
	r := NewRunner(4)
	r.Quick = true
	r.Workers = 4
	const n = 8
	cells := make([]Cell, n)
	errs := make([]error, n)
	done := make(chan int)
	for i := 0; i < n; i++ {
		go func(i int) {
			cells[i], errs[i] = r.Cell("simple", "pl")
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if cells[i] != cells[0] {
			t.Errorf("request %d saw %+v, request 0 saw %+v", i, cells[i], cells[0])
		}
	}
}

// Plans are cached by the whole option set: PL and PL with hoisting share
// an Options.String() but are two plans of one benchmark.
func TestPlanCacheKeysOnOptions(t *testing.T) {
	r := NewRunner(4)
	c, pl, err := r.planFor("simple", Experiment{Options: comm.PL()})
	if err != nil {
		t.Fatal(err)
	}
	_, hoist, err := r.planFor("simple", Experiment{Options: comm.PLHoist()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.plans) != 2 || pl == hoist || hoist.HoistedCount() == 0 {
		t.Errorf("%d cached plans (same plan: %v, %d hoisted), want PL and PL+hoist apart",
			len(c.plans), pl == hoist, hoist.HoistedCount())
	}
}
