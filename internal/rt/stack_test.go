package rt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"commopt/internal/programs"
)

// stackPerProc bounds the coroutine stack one processor holds once past its
// first sight of a transfer (proc.state → classCache.get → carries, and
// geometry on its class's first miss). Each holds about 4 KB; a frame that
// takes that path past 4 KB doubles every stack, as a 576-byte array of
// pairs returned into carries did (8 KB a processor).
const stackPerProc = 6 << 10

// TestStacksStaySmall samples the stacks of swm's 4,096 processors, stepped
// by one worker in rank order: when the last rank first runs, every other
// has opened its first transfer and parked on a receive. The collector is
// off, so no stack shrinks before the sample.
func TestStacksStaySmall(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector's frames fill a processor's stack past the bound, with or without a deep frame")
	}
	b, err := programs.ByName("swm")
	if err != nil {
		t.Fatal(err)
	}
	w := classWorld(t, b.Source, 4096, map[string]float64{"n": 128, "iters": 1})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, at runtime.MemStats
	runtime.ReadMemStats(&before)
	last, opened := w.procs[len(w.procs)-1], 0
	w.runSched(1, func(p *proc) {
		if p == last {
			runtime.ReadMemStats(&at)
			for _, q := range w.procs {
				if q.openCount > 0 {
					opened++
				}
			}
		}
		p.run()
	})
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	if opened != len(w.procs)-1 {
		t.Fatalf("%d of the other %d processors had opened a transfer at the sample", opened, len(w.procs)-1)
	}
	if per := (at.StackInuse - before.StackInuse) / uint64(len(w.procs)); per > stackPerProc {
		t.Errorf("coroutine stacks hold %d bytes a processor past a first sight, want at most %d", per, stackPerProc)
	}
}
