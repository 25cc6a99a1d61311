package rt

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commopt/internal/comm"
	"commopt/internal/machine"
	"commopt/internal/programs"
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

// noGoroutinesLeft fails the test unless the goroutine count is back at
// base within 2 s: workers exit on their own just after runSched returns,
// but a processor coroutine the kill pass did not stop — parked, runnable or
// never started — keeps its goroutine and stack for the life of the process.
func noGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines left behind (%d before the run, %d now)",
				runtime.NumGoroutine()-base, base, runtime.NumGoroutine())
			return
		}
		runtime.Gosched()
	}
}

// TestSchedulerRunLeavesNoGoroutines: a normal run ends with every
// coroutine and worker gone.
func TestSchedulerRunLeavesNoGoroutines(t *testing.T) {
	prog, plan := compile(t, schedTestSrc)
	base := runtime.NumGoroutine()
	if _, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 64}); err != nil {
		t.Fatal(err)
	}
	noGoroutinesLeft(t, base)
}

// TestSchedulerDeadlockDetected: a processor parked on an event nobody
// will deliver must fail the run with a diagnostic naming the waiter,
// not hang — and not stay behind once the run has failed.
func TestSchedulerDeadlockDetected(t *testing.T) {
	w := testWorld(t, 4)
	base := runtime.NumGoroutine()
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
	noGoroutinesLeft(t, base)
}

// TestSchedulerAbortUnwindsParked: a processor failing while peers are
// parked must abort the whole run promptly and leave no goroutine behind:
// the kill pass unwinds the parked ones and ends the ones the abort came
// too early for — with one worker, exactly ranks 4 and up.
func TestSchedulerAbortUnwindsParked(t *testing.T) {
	for _, workers := range []int{1, 2} {
		w := testWorld(t, 16)
		base := runtime.NumGoroutine()
		var started atomic.Int32
		w.runSched(workers, func(p *proc) {
			started.Add(1)
			if p.rank == 3 {
				panic("boom")
			}
			p.nextData(0) // parks until the abort unwinds it
		})
		if w.abortErr == nil || !strings.Contains(w.abortErr.Error(), "boom") {
			t.Fatalf("workers=%d: abortErr = %v, want processor 3's panic", workers, w.abortErr)
		}
		if n := started.Load(); workers == 1 && n != 4 {
			t.Errorf("one worker started %d processors before the abort, want ranks 0-3 only", n)
		}
		noGoroutinesLeft(t, base)
	}
}

// TestSchedulerPanicAfterWake: a body that parks, is woken and then
// panics fails the run with its own message, on one worker and on many.
// The panic surfaces inside a coroutine a worker switched into, so the
// recover must sit inside the coroutine (iter.Pull would re-raise it in
// the worker): runSched returning at all shows the worker survived.
func TestSchedulerPanicAfterWake(t *testing.T) {
	for _, workers := range []int{1, 8} {
		w := testWorld(t, 16)
		base := runtime.NumGoroutine()
		w.runSched(workers, func(p *proc) {
			switch p.rank {
			case 0:
				p.nextColl(collKey(0, 1)) // parks: rank order runs us first
				panic("late boom")
			case 1:
				p.deliverColl(w.procs[0], collKey(0, 1), collMsg{src: 1})
			default:
				p.nextData(0) // parked when the abort comes
			}
		})
		if w.abortErr == nil || !strings.Contains(w.abortErr.Error(), "rt: processor 0: late boom") {
			t.Errorf("workers=%d: abortErr = %v, want processor 0's panic", workers, w.abortErr)
		}
		noGoroutinesLeft(t, base)
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

// TestSchedulerParkStepHandshake needs at least two workers stepping
// concurrently, but the process-wide step budget (budgetTokens) is sized
// from GOMAXPROCS at first use — on a single-CPU CI host one token
// serializes every step and a delivery can never meet a park in flight.
// Raise GOMAXPROCS before any test runs so the budget admits real worker
// concurrency; virtual-time results are independent of host parallelism
// (TestSchedulerWorkerCountsAgree), so this only adds scheduling chaos,
// which is what race regression tests want.
func init() {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
}

// TestSchedulerParkStepHandshake hammers the one window the park protocol
// has: between a processor's park request (wait set under mb.mu, then the
// switch to its worker) and that worker's commit (parked set under mb.mu).
// A delivery before the commit must avert the park — clear the wait,
// enqueue nothing, the worker steps the processor again — and a delivery
// after it must wake and enqueue exactly once; either way no second worker
// may ever be inside the processor (iter.Pull panics "next called again
// before yield", -race reports it), every body completes and live reaches
// zero. Even ranks park once on a reduction message and finish on wake-up;
// each odd rank watches its even neighbour's mailbox and delivers the
// moment the request shows, so deliveries land on both sides of the
// commit. A waker whose target has not asked within the deadline (its
// worker starved of a step-budget token, say) delivers anyway and the
// target never parks; the books must balance in that case too: every
// switch out of a processor is its completion, an averted park or a
// committed one.
func TestSchedulerParkStepHandshake(t *testing.T) {
	const procs, rounds = 16, 400
	var averted, requested int64
	for round := 0; round < rounds; round++ {
		w := testWorld(t, procs)
		var done atomic.Int32
		w.runSched(8, func(p *proc) {
			if p.rank%2 == 0 {
				p.nextColl(collKey(0, p.rank+1))
			} else {
				dst := w.procs[p.rank-1]
				for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
					dst.mb.mu.Lock()
					asked := dst.mb.wait == waitRed
					dst.mb.mu.Unlock()
					if asked {
						break
					}
				}
				p.deliverColl(dst, collKey(0, p.rank), collMsg{src: p.rank})
			}
			done.Add(1)
		})
		if w.abortErr != nil {
			t.Fatalf("round %d: unexpected abort: %v", round, w.abortErr)
		}
		if n := done.Load(); n != procs {
			t.Fatalf("round %d: %d of %d bodies completed", round, n, procs)
		}
		if w.sched.live != 0 {
			t.Fatalf("round %d: scheduler live = %d after completion, want 0", round, w.sched.live)
		}
		st := w.schedStats
		committed := st.TotalSteps() - procs - st.ParksAverted // steps that ended in neither completion nor an averted park
		if committed < 0 || st.ParksAverted+committed != st.TotalParks() {
			t.Fatalf("round %d: %d parks averted + %d committed, %d requested (%d steps)",
				round, st.ParksAverted, committed, st.TotalParks(), st.TotalSteps())
		}
		averted += st.ParksAverted
		requested += st.TotalParks()
	}
	t.Logf("%d rounds: %d parks requested, %d averted by a delivery before the commit", rounds, requested, averted)
}

// TestSchedulerWorkerCountsAgree: the same program must produce
// identical simulated results and arrays at any worker-pool size. The
// reference is the one-worker run, where processors are stepped one at a
// time and host scheduling has nothing to reorder. Besides a small stencil,
// it holds the shapes the paper's SHMEM penalty comes from — tomcatv's and
// sp's serialized wavefront phases, under shmem at pl and under pvm at
// baseline — at 64 processors, where 3 workers make uneven home bands (22,
// 21 and 21 ranks), so steals and wake-ups across bands both occur.
func TestSchedulerWorkerCountsAgree(t *testing.T) {
	type agreeCase struct {
		name, src, lib string
		opts           comm.Options
		procs          int
		vars           map[string]float64
		workers        []int
	}
	cases := []agreeCase{{"schedtest", schedTestSrc, "pvm", comm.PL(), 16, nil, []int{2, 8, 64}}}
	for _, w := range []struct {
		bench, lib string
		opts       comm.Options
	}{{"tomcatv", "shmem", comm.PL()}, {"sp", "pvm", comm.Baseline()}} {
		bench, err := programs.ByName(w.bench)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, agreeCase{w.bench + "/" + w.lib, bench.Source, w.lib, w.opts, 64, bench.TestConfig, []int{2, 3, 8}})
	}
	for _, c := range cases {
		prog, _ := compile(t, c.src)
		plan := comm.BuildPlan(prog, c.opts)
		run := func(workers int) *Result {
			res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: c.lib, Procs: c.procs,
				ConfigVars: c.vars, SchedWorkers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			return res
		}
		base := run(1)
		for _, workers := range c.workers {
			res := run(workers)
			if res.ExecTime != base.ExecTime || res.Output != base.Output {
				t.Errorf("%s workers=%d: ExecTime %v Output %q; one worker %v %q",
					c.name, workers, res.ExecTime, res.Output, base.ExecTime, base.Output)
			}
			for r := range res.PerProc {
				if res.PerProc[r] != base.PerProc[r] {
					t.Errorf("%s workers=%d: PerProc[%d] = %+v, one worker %+v", c.name, workers, r, res.PerProc[r], base.PerProc[r])
				}
			}
			if !sameArrays(res, base) {
				t.Errorf("%s workers=%d: arrays differ from the one-worker run's", c.name, workers)
			}
		}
	}
}

// TestSchedulerStealsFromBusyHome: a runnable processor whose home worker
// is busy must still run. Ranks 0 and 1 share worker 0's queue, ranks 2 and
// 3 worker 1's; whichever of 0 and 1 a worker takes first spins until rank 1
// has run, which the other worker can only do by stealing once its own
// queue is drained. Without the steal, rank 1 waits out the spin's
// deadline.
func TestSchedulerStealsFromBusyHome(t *testing.T) {
	if cap(budgetTokens()) < 2 {
		t.Skip("the step budget admits one worker at a time: a spinning processor starves the other")
	}
	w := testWorld(t, 4)
	var ran1, ranInTime atomic.Bool
	w.runSched(2, func(p *proc) {
		switch p.rank {
		case 0:
			for deadline := time.Now().Add(5 * time.Second); !ran1.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			ranInTime.Store(ran1.Load())
		case 1:
			ran1.Store(true)
		}
	})
	if w.abortErr != nil {
		t.Fatalf("unexpected abort: %v", w.abortErr)
	}
	if !ranInTime.Load() {
		t.Fatal("rank 1 did not run while its home worker was busy with rank 0")
	}
	if w.schedStats.Steals == 0 {
		t.Error("no steal counted")
	}
}

// TestSchedulerStealsCounted: the sched_steals counter is SchedStats.Steals,
// and one worker, with no queue but its own, never steals.
func TestSchedulerStealsCounted(t *testing.T) {
	prog, plan := compile(t, schedTestSrc)
	for _, workers := range []int{1, 2} {
		res, err := Run(prog, plan, Config{Machine: machine.T3D(), Library: "pvm", Procs: 64, SchedWorkers: workers, Metrics: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Metrics.Counter("sched_steals").N; got != res.Sched.Steals {
			t.Errorf("workers=%d: sched_steals counter %d, SchedStats.Steals %d", workers, got, res.Sched.Steals)
		}
		if workers == 1 && res.Sched.Steals != 0 {
			t.Errorf("one worker stole %d times", res.Sched.Steals)
		}
	}
}
