package rt

import (
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the M:N virtual-processor scheduler, the runtime's
// one execution engine: a fixed pool of worker goroutines steps runnable
// processors. A processor is a pull coroutine (iter.Pull over its body): a
// worker's next() switches straight into it — same thread, no run-queue
// transit, no wake-up — and it runs until it blocks on a virtual-time
// event (a message receive, a rendezvous ready token, a reduction), where
// it records what it waits for and switches straight back. The worker, not
// the processor, then makes the park visible: if the event arrived in the
// meantime it steps the same processor again, otherwise it commits the
// park and pops the next runnable processor. Peers deliver events into
// per-processor mailboxes and re-queue a parked processor, so a blocked
// receive costs two coroutine switches and a queue append instead of a
// blocked OS thread. With one worker (Config.SchedWorkers) processors run
// strictly one at a time.
//
// Nothing on that path takes a lock all workers share. A processor's wait
// is one atomic word (the park word below); every mailbox queue has one
// producer and one consumer (fifo.go); a reduction is one atomic arrival
// count and one wake-up round by the last rank to arrive (collective.go).
// Each worker owns a FIFO run queue under its own short lock; a processor
// joins that of its fixed home worker, rank*workers/procs — a band of mesh
// rows, so neighbours mostly share one and run where their data is. A worker steals another queue's head only
// when its own is empty and sleeps only when all are; a wake-up signals the
// home worker if it sleeps, else a sleeper if the home queue holds two.
//
// Deadlock freedom: event delivery never blocks the sender (mailbox queues
// grow as needed; PairChanCap in rt.go is what a plan budgets them for). A
// processor therefore only ever blocks as a *parked* state visible to the
// scheduler, and the scheduler can prove a global deadlock exactly: no
// processor queued, none running, some still live means every live
// processor is parked on an event that no running processor can ever
// deliver — an immediate error naming each waiter, not a hang.

// The park word (mbox.park) spells the park protocol in one atomic word:
// bits 0-1 the phase, bits 2-3 the waitReason, the rest what the processor
// waits on — a neighbour slot, or a reduction's sequence. Zero means no
// wait. The owner requests a park by storing the word with parkRequested,
// re-checks its queue (or, in a reduction, the board) once, withdrawing the
// request if the event is there, and switches to its worker; the worker
// commits the park with one CAS, requested → parkCommitted. A deliverer
// (in a reduction, the last rank to arrive) publishes its event first,
// then loads the word: if it waits on exactly this event, a CAS clears it,
// and the deliverer enqueues the owner only when the park it cleared was
// committed — before that the worker still holds the processor and, its
// CAS failing, simply steps it again. The owner's store-then-recheck and
// the deliverer's publish-then-load cannot both miss each other.
const (
	parkRequested = 1
	parkCommitted = 2
	parkPhase     = 3
)

func parkWord(reason waitReason, on uint64) uint64 { return on<<4 | uint64(reason)<<2 }

// mbox is a processor's mailbox: the events peers deliver while it is
// parked or running elsewhere, and the park word those deliveries inspect
// to decide whether to re-queue it.
type mbox struct {
	park  atomic.Uint64
	slots []slotBox // by neighbour slot
}

// slotBox is what one neighbour delivers: its data messages, and a
// back-channel that carries rendezvous ready tokens under rendezvous
// libraries and returned buffers under message passing (bufpool.go) — one
// run never uses both.
type slotBox struct {
	data fifo[*dataMsg]
	back fifo[readyTok]
}

// scheduler runs one world's processors on a bounded worker pool.
type scheduler struct {
	w      *world
	queues []runq        // queues[wi]: worker wi's home queue
	busy   atomic.Int64  // processors queued or being stepped
	live   atomic.Int64  // processors whose body has not completed
	idle   atomic.Int32  // workers registered as sleepers
	budget chan struct{} // budgetTokens(); a sleeping worker returns its token

	// stop ends the run (completion, abort or deadlock). A sleeper
	// registers before it loads stop, and the stopper stores stop before
	// it wakes the registered, so no worker sleeps through it.
	stop atomic.Bool
}

// runq is one worker's FIFO, popped by advancing head, under its own lock.
// idle says the worker sleeps on wake; whoever clears idle sends the one
// wake-up.
type runq struct {
	mu   sync.Mutex
	ps   []*proc
	head int
	idle atomic.Bool
	wake chan struct{}
	_    [64]byte // keeps workers' queues off each other's cache lines
}

// SchedStats reports the M:N scheduler's observability counters for one
// run (Result.Sched). The counters are collected unconditionally: each is
// a plain field of the one worker or processor that writes it, folded at
// the end of the run, never a shared write on a clock-charge fast path.
type SchedStats struct {
	Workers int      // worker pool size the run actually used
	Steps   []int64  // processor steps executed by each worker
	Parks   [4]int64 // park requests indexed by waitReason (0 unused)
	// ParksAverted counts the park requests whose event arrived before
	// the worker committed them: the processor was stepped again at once,
	// with no run-queue transit. Like Steps it depends on host
	// interleaving, not on the simulated program alone.
	ParksAverted int64
	Steals       int64 // pops from another worker's queue, its own empty
	// RunqHiWater is the most processors ever runnable at once, over all
	// queues: every processor starts runnable and none is ever queued
	// twice, so it is the initial fill, the processor count.
	RunqHiWater int
	// MboxHiWater is the deepest any single mailbox queue ever got — one
	// slot's data messages or ready tokens, as the producer saw it after a
	// push (returned buffers are not counted). Reductions deliver nothing
	// to a mailbox.
	MboxHiWater int
}

// TotalSteps sums the per-worker step counts.
func (s *SchedStats) TotalSteps() int64 {
	var n int64
	for _, v := range s.Steps {
		n += v
	}
	return n
}

// ParkReason names one index of Parks ("data", "ready token",
// "reduction"); index 0 is the unused "nothing" slot.
func (s *SchedStats) ParkReason(i int) string { return waitReason(i).String() }

// TotalParks sums the park requests across wait reasons.
func (s *SchedStats) TotalParks() int64 {
	var n int64
	for _, v := range s.Parks {
		n += v
	}
	return n
}

// stepBudget is the process-wide admission controller: a worker holds one
// token, across all concurrent Runs, while it steps processors. The
// experiment harness can therefore run cells with any nominal parallelism
// — total proc-steps in flight never exceed the host's parallelism, which
// is what the PR 5 oversubscription regression was missing (cells each
// spawning full goroutine worlds multiplied instead of sharing the
// budget).
//
// Tokens are held across consecutive steps, not re-acquired per step: a
// worker keeps its token while any queue has work and gives it back only
// while it sleeps (every queue empty) or on exit. Per-step acquire would
// round-robin the host across every concurrent world at step granularity
// — two extra channel handoffs and a world switch per step — which on a
// single-CPU host made a nominally parallel harness measurably slower
// than the serial one. Holding is starvation-bounded: a holder releases
// no later than its world's completion, because drained queues or the
// stop flag forces it through the release path.
var (
	stepBudgetOnce sync.Once
	stepBudget     chan struct{}
)

func budgetTokens() chan struct{} {
	stepBudgetOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		stepBudget = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			stepBudget <- struct{}{}
		}
	})
	return stepBudget
}

// runSched executes every processor body under the worker pool and
// returns when all have completed or the world aborted. bodies is the
// per-processor entry point (normally proc.run; tests substitute bodies
// that park forever to exercise deadlock detection).
func (w *world) runSched(workers int, body func(p *proc)) {
	s := &scheduler{w: w, budget: budgetTokens()}
	w.sched = s
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(w.procs) {
		workers = len(w.procs)
	}
	s.queues = make([]runq, workers)
	for wi := range s.queues {
		s.queues[wi].wake = make(chan struct{}, 1)
	}

	// Every processor starts runnable on its home queue, in rank order; its
	// coroutine first runs when a worker first steps it.
	for _, p := range w.procs {
		p.next, p.stop = iter.Pull(p.coroutine(body))
		p.home = p.rank * workers / len(w.procs)
		s.queues[p.home].ps = append(s.queues[p.home].ps, p)
	}
	s.busy.Store(int64(len(w.procs)))
	s.live.Store(int64(len(w.procs)))

	steps := make([]int64, workers)
	steals := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var n, stole int64 // steps[wi], steals[wi], kept off the lines the other workers write
			// The token is held across steps and given back while the
			// worker sleeps: only a token holder claims a processor.
			<-s.budget
			for !s.stop.Load() {
				p, stolen := s.pop(wi)
				if p == nil {
					s.sleep(wi)
					continue
				}
				if stolen {
					stole++
				}
				s.retire(s.step(p, &n))
			}
			s.budget <- struct{}{}
			steps[wi], steals[wi] = n, stole
		}(i)
	}
	wg.Wait()

	// Kill pass: after the workers exit (completion, abort or deadlock),
	// stop every coroutine. One that is parked or runnable sees its switch
	// to the worker return false and unwinds via errAborted; one that never
	// started just ends; one that is done is left alone. A coroutine nobody
	// stops would keep its goroutine and stack for the life of the process.
	for _, p := range w.procs {
		p.stop()
	}

	// Fold the run's scheduler counters. No worker or processor is live,
	// so the per-proc fields are quiescent.
	st := &SchedStats{Workers: workers, Steps: steps, RunqHiWater: len(w.procs)}
	for _, n := range steals {
		st.Steals += n
	}
	for _, p := range w.procs {
		for r, n := range p.parks {
			st.Parks[r] += n
		}
		st.ParksAverted += p.parksAverted
		st.MboxHiWater = max(st.MboxHiWater, p.mbHi)
	}
	w.schedStats = st
}

// pop claims the head of worker wi's queue or, that being empty, steals
// the head of the next non-empty one, reporting whether it stole; nil when
// every queue is empty. Each queue's own lock covers the look into it.
func (s *scheduler) pop(wi int) (*proc, bool) {
	for i := range s.queues {
		q := &s.queues[(wi+i)%len(s.queues)]
		q.mu.Lock()
		if q.head == len(q.ps) {
			q.mu.Unlock()
			continue
		}
		p := q.ps[q.head]
		q.ps[q.head] = nil
		q.head++
		if q.head > 64 && 2*q.head >= len(q.ps) || q.head == len(q.ps) {
			q.ps = append(q.ps[:0], q.ps[q.head:]...)
			q.head = 0
		}
		q.mu.Unlock()
		return p, i > 0
	}
	return nil, false
}

// sleep blocks worker wi until an enqueue or the run's end wakes it. The
// worker registers before it re-checks the queues and stop, and an enqueuer
// pushes under the queue's lock before it looks for sleepers, so a wake-up
// cannot fall between the two.
func (s *scheduler) sleep(wi int) {
	q := &s.queues[wi]
	s.idle.Add(1) // before the flag a waker clears, so the count never runs short
	q.idle.Store(true)
	queued := false
	for i := range s.queues {
		o := &s.queues[i]
		o.mu.Lock()
		queued = queued || o.head < len(o.ps)
		o.mu.Unlock()
	}
	if queued || s.stop.Load() {
		if q.idle.CompareAndSwap(true, false) {
			s.idle.Add(-1)
		} else {
			<-q.wake // a waker claimed this sleep first: take its signal
		}
		return
	}
	s.budget <- struct{}{} // never blocks: this worker holds a token
	<-q.wake
	<-s.budget
}

// wakeOne wakes the first sleeping worker from `from` on, reporting
// whether there was one.
func (s *scheduler) wakeOne(from int) bool {
	for i := range s.queues {
		if o := &s.queues[(from+i)%len(s.queues)]; o.idle.CompareAndSwap(true, false) {
			s.idle.Add(-1)
			o.wake <- struct{}{}
			return true
		}
	}
	return false
}

// step runs one processor until it parks for good or completes, counting
// each switch into it in *steps, and reports whether its body finished
// (next says so exactly once). A processor that comes back with a park
// request still belongs to this worker — nobody else can step it, and
// deliveries do not enqueue it — until the CAS here commits the park: if
// the awaited event arrived first (wake cleared the request), the CAS
// fails, the park is averted and the processor runs on.
func (s *scheduler) step(p *proc, steps *int64) (done bool) {
	for {
		*steps++
		if _, more := p.next(); !more {
			return true
		}
		if w := p.mb.park.Load(); w != 0 && p.mb.park.CompareAndSwap(w, w&^parkPhase|parkCommitted) {
			return false
		}
		p.parksAverted++
	}
}

// retire ends a step's claim on its processor. The worker whose retirement
// leaves nothing queued or running ends the run: every body is done, or
// every live one is parked on an event that no one is left to deliver
// (only running processors deliver, and an enqueue counts itself busy
// before its deliverer retires).
func (s *scheduler) retire(done bool) {
	if done {
		s.live.Add(-1)
	}
	if s.busy.Add(-1) != 0 {
		return
	}
	s.halt()
	if s.live.Load() > 0 {
		s.w.fail(fmt.Errorf("rt: scheduler deadlock: %s", s.parkedSummary()))
	}
}

// enqueue re-queues a processor whose awaited event arrived, on its home
// queue, and wakes a sleeper only when one is registered. Called by the
// deliverer after wake cleared its committed park.
func (s *scheduler) enqueue(p *proc) {
	s.busy.Add(1)
	q := &s.queues[p.home]
	q.mu.Lock()
	q.ps = append(q.ps, p)
	n := len(q.ps) - q.head
	q.mu.Unlock()
	if s.idle.Load() > 0 && (q.idle.Load() || n > 1) {
		s.wakeOne(p.home) // the home worker first
	}
}

// halt stops the worker pool (completion, abort or deadlock) and wakes
// every sleeper to see it. A worker still registering sees stop itself
// and withdraws; until it has, yield to it.
func (s *scheduler) halt() {
	s.stop.Store(true)
	for s.idle.Load() > 0 {
		if !s.wakeOne(0) {
			runtime.Gosched()
		}
	}
}

// parkedSummary names every parked processor and what it waits for, for
// the deadlock error.
func (s *scheduler) parkedSummary() string {
	var parts []string
	for _, p := range s.w.procs {
		w := p.mb.park.Load()
		if w&parkPhase != parkCommitted {
			continue
		}
		wait, on := waitReason(w>>2&3), w>>4
		switch wait {
		case waitData, waitReady:
			parts = append(parts, fmt.Sprintf("proc %d waits for %s from proc %d", p.rank, wait, p.neighbors[on]))
		default:
			parts = append(parts, fmt.Sprintf("proc %d waits for %s %d (%d of %d ranks arrived)",
				p.rank, wait, on, s.w.boards[on&1].arrived.Load(), len(s.w.procs)))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no parked processors (internal error)"
	}
	return strings.Join(parts, "; ")
}

// coroutine is the sequence iter.Pull runs as the processor's coroutine:
// the body, with every switch back to the worker (park) as one yield. The
// recover sits inside the sequence because iter.Pull re-raises a
// coroutine's panic in whoever called next or stop — a worker, or the kill
// pass.
func (p *proc) coroutine(body func(p *proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.toWorker = yield
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				var err error
				switch r := r.(type) {
				case replicated:
					err = r.err // every processor raises it: name none
				case error: // a program error keeps its position for errors.As
					err = fmt.Errorf("processor %d: %w", p.rank, r)
				default:
					err = fmt.Errorf("processor %d: %v", p.rank, r)
				}
				p.w.fail(fmt.Errorf("rt: %w", err))
			}
		}()
		body(p)
	}
}

// request publishes a park request for (reason, on); the caller re-checks
// its queue once, then withdraws the request or parks.
func (p *proc) request(reason waitReason, on uint64) {
	p.mb.park.Store(parkWord(reason, on) | parkRequested)
}

// park switches to the worker that stepped us, which commits the request
// or — the event having arrived in between — switches straight back
// (scheduler.step). It returns once a worker steps us again; the caller
// re-checks its queue in a loop. A false yield is the kill pass stopping
// us.
func (p *proc) park(reason waitReason) {
	p.parks[reason]++
	if !p.toWorker(struct{}{}) || p.w.sched.stop.Load() {
		panic(errAborted)
	}
}

// wake ends dst's wait if it is for exactly this event, which the caller
// has already published, and enqueues dst if its park was committed. A
// failed CAS means the word moved under us — the worker committed the
// request, or the owner withdrew it — so look again.
func (p *proc) wake(dst *proc, reason waitReason, on uint64) {
	want := parkWord(reason, on)
	for {
		w := dst.mb.park.Load()
		if w&^parkPhase != want {
			return
		}
		if dst.mb.park.CompareAndSwap(w, 0) {
			if w&parkPhase == parkCommitted {
				p.w.sched.enqueue(dst)
			}
			return
		}
	}
}

// pushed records the depth a delivery left a queue at (MboxHiWater).
func (p *proc) pushed(depth int) { p.mbHi = max(p.mbHi, depth) }

// deliverData appends a message to dst's inbox from neighbor slot `slot`
// (dst-relative) and wakes dst when it waits on that slot. It never
// blocks: the queue holds whatever is in flight (see PairChanCap).
func (p *proc) deliverData(dst *proc, slot int, m *dataMsg) {
	p.pushed(dst.mb.slots[slot].data.push(m))
	p.wake(dst, waitData, uint64(slot))
}

// deliverTok appends a rendezvous ready token to dst's back-channel.
func (p *proc) deliverTok(dst *proc, slot int, tok readyTok) {
	p.pushed(dst.mb.slots[slot].back.push(tok))
	p.wake(dst, waitReady, uint64(slot))
}

// deliverRet hands a recycled buffer back to its sender through the
// back-channel, best-effort: nobody ever waits on returns, and the stash
// is bounded like the free lists.
func (p *proc) deliverRet(dst *proc, slot int, m *dataMsg) {
	if b := &dst.mb.slots[slot].back; b.len() < poolCap {
		b.push(readyTok{m: m})
	}
}

// next pops the next entry of one of the processor's FIFOs, parking until
// one arrives.
func next[T any](p *proc, f *fifo[T], reason waitReason, slot int) T {
	for {
		if v, ok := f.pop(); ok {
			return v
		}
		p.request(reason, uint64(slot))
		if v, ok := f.pop(); ok {
			p.mb.park.Store(0)
			return v
		}
		p.park(reason)
	}
}

// nextData pops the next message from a neighbor slot, parking until one
// arrives.
func (p *proc) nextData(slot int) *dataMsg { return next(p, &p.mb.slots[slot].data, waitData, slot) }

// nextTok pops the next rendezvous token from a neighbor slot, parking
// until one arrives.
func (p *proc) nextTok(slot int) readyTok { return next(p, &p.mb.slots[slot].back, waitReady, slot) }

// drainRets moves every buffer a peer returned into the send free list
// (message-passing recycling).
func (p *proc) drainRets(slot int) {
	b := &p.mb.slots[slot].back
	for tok, ok := b.pop(); ok; tok, ok = b.pop() {
		if len(p.sendPool[slot]) < poolCap {
			p.sendPool[slot] = append(p.sendPool[slot], tok.m)
		}
	}
}
