package rt

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commopt/internal/comm"
	"commopt/internal/ir"
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
// drive custom step functions. A step function is what proc.run is: it runs
// a processor until it parks, reporting false with a park request
// published, or halts, reporting true; a worker runs it again when the
// processor is woken. Step functions keep their own place in p.pc.
func testWorld(t *testing.T, procs int) *world {
	t.Helper()
	return classWorld(t, schedTestSrc, procs, nil)
}

// noGoroutinesLeft fails the test unless the goroutine count is back at
// base within 2 s: workers exit on their own just after runSched returns,
// and a processor, parked, runnable or never started, holds none.
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

// TestSchedulerRunLeavesNoGoroutines: a normal run ends with every worker
// gone.
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
	w.runSched(2, func(p *proc) bool {
		if p.rank == 0 {
			_, ok := p.nextData(0) // no peer ever sends: parks forever
			return ok
		}
		return true
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
// the parked ones stay parked, and the ones the abort came too early for —
// with one worker, exactly ranks 4 and up — never run.
func TestSchedulerAbortUnwindsParked(t *testing.T) {
	for _, workers := range []int{1, 2} {
		w := testWorld(t, 16)
		base := runtime.NumGoroutine()
		var started atomic.Int32
		w.runSched(workers, func(p *proc) bool {
			if p.pc == 0 {
				p.pc = 1
				started.Add(1)
			}
			if p.rank == 3 {
				panic("boom")
			}
			_, ok := p.nextData(0) // parks until the run ends
			return ok
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
// Every rank enters a reduction; rank 0 panics once the last arrival's
// wake-up releases it, the others park on data. The panic surfaces in a
// worker running a woken processor, so the worker's recover reports it:
// runSched returning at all shows the worker survived.
func TestSchedulerPanicAfterWake(t *testing.T) {
	for _, workers := range []int{1, 8} {
		w := testWorld(t, 16)
		base := runtime.NumGoroutine()
		w.runSched(workers, func(p *proc) bool {
			if p.pc == 0 {
				if _, ok := p.rendezvous(0, ir.ReduceSum, 1); !ok { // with one worker rank 0 arrives first and parks
					return false
				}
				p.pc = 1
				if p.rank == 0 {
					panic("late boom")
				}
			}
			_, ok := p.nextData(0) // parked when the abort comes
			return ok
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

// TestSchedulerParkStepHandshake hammers the one window the park protocol
// has: between a worker's store of a processor's park word and its check of
// the event. A delivery in that window is either found by the check — the
// worker takes the word back with a CAS and runs the processor again, an
// averted park — or clears the word with its own CAS and enqueues the
// processor; either way no second worker may ever be inside the processor
// (-race reports it), every processor halts and live reaches zero. In the
// data and token rounds even ranks park once and finish on wake-up; each
// odd rank, their east neighbour, watches the park word and delivers the
// moment it shows. In the reduction round every rank enters one reduction,
// and the last rank watches the one before it and arrives the moment its
// word shows, so the last arrival's wake-up races that worker's check; every
// rank must leave with the sum. A waker whose target has not parked within
// the deadline delivers anyway and the target never parks; the books must
// balance in that case too: every return from a processor is its
// completion, an averted park or a committed one. TestSchedulerAvertedPark
// lands an event in the window deterministically.
func TestSchedulerParkStepHandshake(t *testing.T) {
	const procs, rounds = 16, 200
	for _, reason := range []waitReason{waitData, waitReady, waitRed} {
		var averted, parks int64
		for round := 0; round < rounds; round++ {
			w := testWorld(t, procs)
			var done atomic.Int32
			w.runSched(8, func(p *proc) bool {
				waitFor := func(dst *proc) {
					for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
						if waitReason(dst.mb.park.Load()&3) == reason {
							return
						}
					}
				}
				switch {
				case reason == waitRed:
					if p.rank == procs-1 && p.pc == 0 {
						p.pc = 1 // a wake-up resumes in the rendezvous
						waitFor(w.procs[p.rank-1])
					}
					b, ok := p.rendezvous(0, ir.ReduceSum, float64(p.rank))
					if !ok {
						return false
					}
					if got := b.result; got != procs*(procs-1)/2 {
						t.Errorf("rank %d: reduction result %v", p.rank, got)
					}
				case p.rank%2 == 0:
					ok := false
					if slot := p.nbr[1][2].slot; reason == waitData {
						_, ok = p.nextData(slot)
					} else {
						_, ok = p.nextTok(slot)
					}
					if !ok {
						return false
					}
				default:
					dst := w.procs[p.rank-1]
					waitFor(dst)
					if back := p.nbr[1][0].back; reason == waitData {
						p.deliverData(dst, back, &dataMsg{})
					} else {
						p.deliverTok(dst, back, readyTok{})
					}
				}
				done.Add(1)
				return true
			})
			if w.abortErr != nil {
				t.Fatalf("%s round %d: unexpected abort: %v", reason, round, w.abortErr)
			}
			if n := done.Load(); n != procs {
				t.Fatalf("%s round %d: %d of %d bodies completed", reason, round, n, procs)
			}
			if n := w.sched.live.Load(); n != 0 {
				t.Fatalf("%s round %d: scheduler live = %d after completion, want 0", reason, round, n)
			}
			st := w.schedStats
			committed := st.TotalSteps() - procs - st.ParksAverted // steps that ended in neither completion nor an averted park
			if committed < 0 || st.ParksAverted+committed != st.TotalParks() || st.TotalParks() != st.Parks[reason] {
				t.Fatalf("%s round %d: %d parks averted + %d committed, %d parks (%d steps, by reason %v)",
					reason, round, st.ParksAverted, committed, st.TotalParks(), st.TotalSteps(), st.Parks)
			}
			averted += st.ParksAverted
			parks += st.TotalParks()
		}
		t.Logf("%s: %d rounds: %d parks, %d averted by the worker's check", reason, rounds, parks, averted)
	}
}

// TestSchedulerAvertedPark: an event that lands after an op parks but
// before its worker stores the park word — from a deliverer that loaded no
// word, so woke nobody — is found by the worker's one check, which takes the
// park back. With one worker nothing else could ever run the processor
// again. On data, rank 0 parks on an empty slot, then pushes a message into
// it as such a delivery does: a push with no wake. In a reduction, rank 0
// parks in the rendezvous, then arrives for rank 1, the last rank, which
// publishes done while rank 0's word is still unstored.
func TestSchedulerAvertedPark(t *testing.T) {
	for _, reason := range []waitReason{waitData, waitRed} {
		w := testWorld(t, 2)
		sent, got, sum := &dataMsg{tag: 7}, (*dataMsg)(nil), 0.0
		w.runSched(1, func(p *proc) bool {
			switch {
			case p.rank == 1: // in a reduction, rank 0 arrives for it
			case reason == waitData:
				m, ok := p.nextData(0)
				if !ok && p.pc == 0 {
					p.pc = 1
					p.mb.slots[0].data.push(sent)
				}
				if !ok {
					return false
				}
				got = m
			default:
				b, ok := p.rendezvous(0, ir.ReduceSum, 2)
				if !ok && p.pc == 0 {
					p.pc = 1
					if _, last := w.procs[1].rendezvous(0, ir.ReduceSum, 3); !last {
						t.Error("rank 1 did not complete the reduction")
					}
				}
				if !ok {
					return false
				}
				sum = b.result
			}
			return true
		})
		if w.abortErr != nil {
			t.Errorf("%s: %v", reason, w.abortErr)
			continue
		}
		if st := w.schedStats; st.ParksAverted != 1 || st.Parks[reason] != 1 || st.TotalSteps() != 3 {
			t.Errorf("%s: %d parks averted, %d parks, %d steps; want 1, 1, 3", reason, st.ParksAverted, st.Parks[reason], st.TotalSteps())
		}
		if reason == waitData && got != sent {
			t.Errorf("data: rank 0 consumed %v, want the message pushed while it parked", got)
		}
		if reason == waitRed && sum != 5 {
			t.Errorf("reduction: result %v, want 5", sum)
		}
	}
}

// TestSchedulerMailboxOverflow: one slot receives 8 × PairChanCap messages
// before its owner pops — far past the inline ring — and they arrive in
// order, without the sender ever blocking (with one worker, a blocked
// sender would be a deadlock), with MboxHiWater at the depth. Once the
// FIFO has grown, a second fill and drain allocates nothing.
func TestSchedulerMailboxOverflow(t *testing.T) {
	w := testWorld(t, 4)
	depth := 8 * PairChanCap(w.plan)
	slot := w.procs[0].nbr[1][2].slot // rank 0's slot for rank 1, its east neighbour
	var got []int
	w.runSched(1, func(p *proc) bool {
		switch p.rank {
		case 0:
			if p.pc == 0 {
				if _, ok := p.nextTok(slot); !ok { // rank 1 has sent everything
					return false
				}
				p.pc = 1
			}
			for len(got) < depth {
				m, ok := p.nextData(slot)
				if !ok {
					return false
				}
				got = append(got, m.tag)
			}
		case 1:
			back := p.nbr[1][0].back
			for i := range depth {
				p.deliverData(w.procs[0], back, &dataMsg{tag: i})
			}
			p.deliverTok(w.procs[0], back, readyTok{})
		}
		return true
	})
	if w.abortErr != nil {
		t.Fatal(w.abortErr)
	}
	for i, tag := range got {
		if tag != i {
			t.Fatalf("message %d of %d carries tag %d: order lost past the inline ring", i, depth, tag)
		}
	}
	if len(got) != depth {
		t.Fatalf("%d of %d messages arrived", len(got), depth)
	}
	if hi := w.schedStats.MboxHiWater; hi != depth {
		t.Errorf("MboxHiWater = %d, want the fill depth %d", hi, depth)
	}
	f, m := &w.procs[0].mb.slots[slot].data, &dataMsg{}
	if allocs := testing.AllocsPerRun(10, func() {
		for range depth {
			f.push(m)
		}
		for range depth {
			f.pop()
		}
	}); allocs != 0 {
		t.Errorf("a second fill and drain of %d allocates %.0f times, want 0", depth, allocs)
	}
}

// TestSchedulerDeadlockOnReduction: one rank enters a reduction the others
// never enter, and the deadlock diagnostic names what it waits for: the
// sequence, and how many of the ranks have arrived.
func TestSchedulerDeadlockOnReduction(t *testing.T) {
	w := testWorld(t, 16)
	base := runtime.NumGoroutine()
	w.runSched(2, func(p *proc) bool {
		if p.rank == 13 {
			_, ok := p.rendezvous(2, ir.ReduceSum, 1) // no other rank arrives: parks forever
			return ok
		}
		return true
	})
	if w.abortErr == nil {
		t.Fatal("deadlocked run reported no error")
	}
	msg := w.abortErr.Error()
	if !strings.Contains(msg, "scheduler deadlock") || !strings.Contains(msg, "proc 13 waits for reduction 2 (1 of 16 ranks arrived)") {
		t.Errorf("error %q does not name the reduction rank 13 waits for", msg)
	}
	noGoroutinesLeft(t, base)
}

// TestSchedulerDeadlockAfterSleep: the deadlock forms while every other
// worker already sleeps, so only the last worker to register idle can see
// it — and must, naming the waiter, not sleep beside the others. Rank 0
// holds out until the other workers are asleep, then parks on data nobody
// sends.
func TestSchedulerDeadlockAfterSleep(t *testing.T) {
	for _, workers := range []int{2, 8} {
		w := testWorld(t, 16)
		base := runtime.NumGoroutine()
		var othersSlept atomic.Bool
		w.runSched(workers, func(p *proc) bool {
			if p.rank != 0 {
				return true
			}
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
				if w.sched.idle.Load() == int32(workers-1) {
					othersSlept.Store(true)
					break
				}
			}
			_, ok := p.nextData(0) // no peer ever sends: parks forever
			return ok
		})
		if !othersSlept.Load() {
			t.Errorf("workers=%d: the other workers never all slept", workers)
		}
		if w.abortErr == nil {
			t.Fatalf("workers=%d: deadlocked run reported no error", workers)
		}
		if msg := w.abortErr.Error(); !strings.Contains(msg, "scheduler deadlock") || !strings.Contains(msg, "proc 0 waits for data") {
			t.Errorf("workers=%d: error %q does not name the parked processor", workers, msg)
		}
		noGoroutinesLeft(t, base)
	}
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
	w := testWorld(t, 4)
	var ran1, ranInTime atomic.Bool
	w.runSched(2, func(p *proc) bool {
		switch p.rank {
		case 0:
			for deadline := time.Now().Add(5 * time.Second); !ran1.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			ranInTime.Store(ran1.Load())
		case 1:
			ran1.Store(true)
		}
		return true
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

// TestSchedulerFIFOConcurrentOrder: a producer 64 entries ahead before its
// consumer starts — past the inline ring, on a heap ring — and pushing on,
// growing the ring while the consumer pops on another goroutine, delivers
// every entry once and in order (-race checks how entries and rings are
// published).
func TestSchedulerFIFOConcurrentOrder(t *testing.T) {
	const n = 20000
	var f fifo[int]
	ahead, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			f.push(i)
			if i == 64 {
				close(ahead) // past the inline ring: the consumer starts on a heap ring
			}
			if i%1000 == 0 {
				runtime.Gosched()
			}
		}
	}()
	<-ahead
	for want := 0; want < n; {
		v, ok := f.pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != want {
			t.Fatalf("popped %d, want %d", v, want)
		}
		want++
	}
	<-done
	if _, ok := f.pop(); ok {
		t.Fatal("an entry beyond the last push")
	}
	if b := f.heap.Load(); b == nil || len(*b) < 128 {
		t.Fatal("the ring never moved to a heap ring of the producer's lead")
	}
}
