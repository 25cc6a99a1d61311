package rt

import (
	"runtime"
	"testing"

	"commopt/internal/programs"
)

// TestNoGoroutinePerProcessor samples the goroutines of a run of swm's
// 4,096 processors, stepped by one worker in rank order: when the last rank
// first runs, every other has opened its first transfer and parked on a
// receive. A parked processor is a pc and a cursor, not a goroutine, so the
// count is the worker's and the test's own, whatever the processor count.
func TestNoGoroutinePerProcessor(t *testing.T) {
	const workers = 1
	b, err := programs.ByName("swm")
	if err != nil {
		t.Fatal(err)
	}
	w := classWorld(t, b.Source, 4096, map[string]float64{"n": 128, "iters": 1})
	last, opened, goroutines := w.procs[len(w.procs)-1], 0, -1
	w.runSched(workers, func(p *proc) bool {
		if p == last && goroutines < 0 {
			goroutines = runtime.NumGoroutine()
			for _, q := range w.procs {
				if q.openCount > 0 {
					opened++
				}
			}
		}
		return p.run()
	})
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	if opened != len(w.procs)-1 {
		t.Fatalf("%d of the other %d processors had opened a transfer at the sample", opened, len(w.procs)-1)
	}
	t.Logf("%d goroutines while %d processors were parked", goroutines, opened)
	if goroutines > workers+4 {
		t.Errorf("%d goroutines while %d processors were parked, want at most %d", goroutines, len(w.procs)-1, workers+4)
	}
}
