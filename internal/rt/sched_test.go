package rt

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"commopt/internal/machine"
	"commopt/internal/vtime"
)

const schedTestSrc = `
program schedtest;
config var n : integer = 8;
config var iters : integer = 4;
region R = [1..n, 1..n];
direction east = [0, 1]; west = [0, -1];
var A, B : [R] float;
var s : float;
procedure main();
begin
  [R] A := Index1 + Index2;
  for it := 1 to iters do
    [R] B := (A@east + A@west) * 0.5;
    [R] A := B;
  end;
  [R] s := +<< A;
  writeln("s=", s);
end;
`

// testWorld builds a ready-to-run world without starting it, so tests can
// drive custom processor bodies.
func testWorld(t *testing.T, procs int) *world {
	t.Helper()
	return classWorld(t, schedTestSrc, procs, nil)
}

// TestSchedulerDeadlockDetected: a processor parked on an event nobody
// will deliver must fail the run with a diagnostic naming the waiter,
// not hang.
func TestSchedulerDeadlockDetected(t *testing.T) {
	w := testWorld(t, 4)
	w.runSched(2, func(p *proc) {
		if p.rank == 0 {
			p.nextData(0) // no peer ever sends: parks forever
		}
	})
	if w.abortErr == nil {
		t.Fatal("deadlocked run reported no error")
	}
	msg := w.abortErr.Error()
	if !strings.Contains(msg, "scheduler deadlock") {
		t.Errorf("error %q does not mention the deadlock", msg)
	}
	if !strings.Contains(msg, "proc 0 waits for data") {
		t.Errorf("error %q does not name the parked processor", msg)
	}
}

// TestSchedulerAbortUnwindsParked: a processor failing while peers are
// parked must abort the whole run promptly (kill pass), not leave
// goroutines blocked.
func TestSchedulerAbortUnwindsParked(t *testing.T) {
	w := testWorld(t, 4)
	w.runSched(2, func(p *proc) {
		if p.rank == 3 {
			panic("boom")
		}
		p.nextData(0) // parks until the abort unwinds it
	})
	if w.abortErr == nil || !strings.Contains(w.abortErr.Error(), "boom") {
		t.Fatalf("abortErr = %v, want processor 3's panic", w.abortErr)
	}
}

// TestGatherMergesByRank is the regression test for the order-dependent
// result merge: processors now fold their stats in completion order,
// which under the scheduler is arbitrary, and gather must key every
// merge on the recorded rank. Finishing in reverse rank order here must
// still put each processor's breakdown at its own rank, sum the
// counters, and pick the critical path by lowest rank among ties.
func TestGatherMergesByRank(t *testing.T) {
	w := testWorld(t, 4)
	// Ranks 1 and 2 tie for the latest finish with distinguishable
	// splits; the critical path must be rank 1's.
	shape := []Breakdown{
		{Compute: 10, Finish: 10},
		{Compute: 30, Finish: 30},
		{Comm: 30, Finish: 30},
		{Wait: 5, Finish: 5},
	}
	for rank := len(w.procs) - 1; rank >= 0; rank-- {
		p := w.procs[rank]
		p.computeT = shape[rank].Compute
		p.commT = shape[rank].Comm
		p.waitT = shape[rank].Wait
		p.clock = vtime.Time(0).Add(shape[rank].Finish)
		p.messages = rank
		p.finish()
	}
	res := w.gather()
	for rank, want := range shape {
		if res.PerProc[rank] != want {
			t.Errorf("PerProc[%d] = %+v, want %+v", rank, res.PerProc[rank], want)
		}
	}
	if res.Messages != 0+1+2+3 {
		t.Errorf("Messages = %d, want 6", res.Messages)
	}
	if res.ExecTime != 30 || res.Breakdown != shape[1] {
		t.Errorf("critical path = %+v at %v, want rank 1's %+v", res.Breakdown, res.ExecTime, shape[1])
	}
}

// The park/step handshake race (TestSchedulerParkStepHandshake) needs
// at least two workers stepping concurrently, but the process-wide step
// budget (budgetTokens) is sized from GOMAXPROCS at first use — on a
// single-CPU CI host one token serializes every step and the race is
// unreachable. Raise GOMAXPROCS before any test runs so the budget
// admits real worker concurrency; virtual-time results are independent
// of host parallelism (TestSchedulerWorkerCountsAgree), so this only
// adds scheduling chaos, which is what race regression tests want.
func init() {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// TestSchedulerParkStepHandshake is the regression test for the
// park/step handshake race: park() publishes stateParked before the
// processor sends its yield, so a deliverer can wake and re-queue it —
// and a second worker can begin stepping it, buffering a resume — while
// the first worker's handshake is still in flight. The broken protocol
// re-read mb.state after the yield; a body finishing in that window
// made both steps observe stateDone, decrementing live twice, so the
// scheduler could treat a world with unfinished processors as complete:
// no deadlock error, a kill pass silently aborting live processors, and
// missing per-proc stats. The fix carries doneness in the yield value
// itself. This test hammers the window: even ranks park once on a
// reduction message and finish immediately on wakeup (the widest
// finish-in-window target), odd ranks deliver that wakeup, across many
// fresh worlds. A double decrement shows up as live != 0 or as aborted
// bodies (done < procs).
func TestSchedulerParkStepHandshake(t *testing.T) {
	const procs, rounds = 16, 400
	for round := 0; round < rounds; round++ {
		w := testWorld(t, procs)
		var done atomic.Int32
		w.runSched(8, func(p *proc) {
			if p.rank%2 == 0 {
				p.nextColl(collKey(0, p.rank+1)) // parks (rank order runs us before our waker)
			} else {
				p.deliverColl(w.procs[p.rank-1], collKey(0, p.rank), collMsg{src: p.rank})
			}
			done.Add(1)
		})
		if w.abortErr != nil {
			t.Fatalf("round %d: unexpected abort: %v", round, w.abortErr)
		}
		if n := done.Load(); n != procs {
			t.Fatalf("round %d: %d of %d bodies completed (live undercount aborted the rest)", round, n, procs)
		}
		if w.sched.live != 0 {
			t.Fatalf("round %d: scheduler live = %d after completion, want 0", round, w.sched.live)
		}
	}
}

// TestSchedulerWorkerCountsAgree: the same program must produce
// identical simulated results and arrays at any worker-pool size. The
// reference is the one-worker run, where processors are stepped one at a
// time and host scheduling has nothing to reorder.
func TestSchedulerWorkerCountsAgree(t *testing.T) {
	prog, plan := compile(t, schedTestSrc)
	run := func(workers int) *Result {
		res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 16, SchedWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 8, 64} {
		res := run(workers)
		if res.ExecTime != base.ExecTime || res.Output != base.Output {
			t.Errorf("workers=%d: ExecTime %v Output %q; one worker %v %q",
				workers, res.ExecTime, res.Output, base.ExecTime, base.Output)
		}
		for r := range res.PerProc {
			if res.PerProc[r] != base.PerProc[r] {
				t.Errorf("workers=%d: PerProc[%d] = %+v, one worker %+v", workers, r, res.PerProc[r], base.PerProc[r])
			}
		}
		if !sameArrays(res, base) {
			t.Errorf("workers=%d: arrays differ from the one-worker run's", workers)
		}
	}
}
