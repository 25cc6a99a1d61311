package rt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the M:N virtual-processor scheduler, the runtime's
// one execution engine: a fixed pool of worker goroutines steps runnable
// processors. A processor has no stack of its own: it is a pc into the
// world's op array and a cursor (proc.go), and a worker steps it by calling
// proc.run, which interprets ops until the processor blocks on a
// virtual-time event (a message receive, a rendezvous ready token, a
// reduction), where it records what it waits for in p.wait and returns. The
// worker parks it (scheduler.step) and pops the next runnable processor;
// peers deliver events into per-processor mailboxes and re-queue a parked
// processor. With one worker (Config.SchedWorkers) processors run strictly
// one at a time.
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
// scheduler, and the scheduler can prove a global deadlock exactly: every
// worker registered idle, so none is stepping, and every queue empty, while
// some processor is still live, means every live processor is parked on an
// event that no running processor can ever deliver — an immediate error
// naming each waiter, not a hang. The last worker to register idle checks.

// The park word (mbox.park) is a processor's wait in one atomic word: bits
// 0-1 the waitReason, the rest what it waits on — a neighbour slot, or a
// reduction's sequence. Zero means not parked. Only a worker stores it,
// after the processor has returned: it stores the word, checks the event
// once and, if it is there, takes the word back with a CAS (an averted
// park). A deliverer (in a reduction, the last rank to arrive) publishes
// its event, then loads the word: if it waits on exactly this event, a CAS
// clears it and the deliverer enqueues the processor. Store-then-check and
// publish-then-load cannot both miss each other, and whichever CAS clears
// the word owns the processor.
func parkWord(reason waitReason, on uint64) uint64 { return on<<2 | uint64(reason) }

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
	run    func(p *proc) bool // proc.run, or a test's step function
	queues []runq             // queues[wi]: worker wi's home queue
	live   atomic.Int64       // processors whose program has not halted
	idle   atomic.Int32       // workers registered as sleepers

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
	Parks   [4]int64 // parks indexed by waitReason (0 unused)
	// ParksAverted counts the parks whose event the worker found on its
	// check: the processor was stepped again at once, with no run-queue
	// transit. Like Steps it depends on host interleaving, not on the
	// simulated program alone.
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

// TotalParks sums the parks across wait reasons.
func (s *SchedStats) TotalParks() int64 {
	var n int64
	for _, v := range s.Parks {
		n += v
	}
	return n
}

// runSched runs every processor under the worker pool and returns when all
// have halted or the world aborted. run steps one processor until it parks,
// reporting false with its wait in p.wait, or halts, reporting true
// (normally proc.run; tests substitute step functions that park forever to
// exercise deadlock detection).
func (w *world) runSched(workers int, run func(p *proc) bool) {
	s := &scheduler{w: w, run: run}
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

	// Every processor starts runnable on its home queue, in rank order, at
	// the first op.
	for _, p := range w.procs {
		p.home = p.rank * workers / len(w.procs)
		s.queues[p.home].ps = append(s.queues[p.home].ps, p)
	}
	s.live.Store(int64(len(w.procs)))

	steps := make([]int64, workers)
	steals := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var n, stole int64 // steps[wi], steals[wi], kept off the lines the other workers write
			for !s.stop.Load() {
				p, stolen := s.pop(wi)
				if p == nil {
					s.sleep(wi)
					continue
				}
				if stolen {
					stole++
				}
				if s.step(p, &n) && s.live.Add(-1) == 0 {
					s.halt() // every body is done
				}
			}
			steps[wi], steals[wi] = n, stole
		}(i)
	}
	wg.Wait()

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
//
// The worker whose registration makes every worker idle also looks for a
// deadlock: under all the queue locks at once, every queue empty and every
// worker still registered. A registered worker is not stepping, and a
// waker takes a sleeper off the count before it signals, so nobody is
// left to run a processor or deliver the event a parked one waits for.
func (s *scheduler) sleep(wi int) {
	q := &s.queues[wi]
	last := s.idle.Add(1) == int32(len(s.queues)) // before the flag a waker clears, so the count never runs short
	q.idle.Store(true)
	queued := false
	for i := range s.queues {
		s.queues[i].mu.Lock()
		queued = queued || s.queues[i].head < len(s.queues[i].ps)
	}
	dead := last && !queued && s.idle.Load() == int32(len(s.queues))
	for i := range s.queues {
		s.queues[i].mu.Unlock()
	}
	if queued || dead || s.stop.Load() {
		if q.idle.CompareAndSwap(true, false) {
			s.idle.Add(-1)
		} else {
			<-q.wake // a waker claimed this sleep first: take its signal
		}
		if dead && s.live.Load() > 0 {
			s.w.fail(fmt.Errorf("rt: scheduler deadlock: %s", s.parkedSummary()))
		}
		return
	}
	<-q.wake
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

// step runs one processor until it parks or halts, counting each run in
// *steps, and reports whether it halted. A processor that returns parked
// belongs to this worker until the store here publishes its wait; if the
// event is already there and the CAS takes the word back before a
// deliverer's does, the park is averted and the processor runs on. A
// processor's panic fails the run with its message: a replicated program
// error names no processor, any other names this one.
func (s *scheduler) step(p *proc, steps *int64) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			var err error
			switch r := r.(type) {
			case replicated:
				err = r.err // every processor raises it: name none
			case error: // a program error keeps its position for errors.As
				err = fmt.Errorf("processor %d: %w", p.rank, r)
			default:
				err = fmt.Errorf("processor %d: %v", p.rank, r)
			}
			s.w.fail(fmt.Errorf("rt: %w", err))
		}
	}()
	for {
		*steps++
		if s.run(p) {
			return true
		}
		w := p.wait
		p.parks[w&3]++
		p.mb.park.Store(w)
		if !s.arrived(p, w) || !p.mb.park.CompareAndSwap(w, 0) {
			return false
		}
		p.parksAverted++
	}
}

// arrived reports whether the event park word w waits on is there: an
// entry in the slot's data or back queue, or the reduction's result.
func (s *scheduler) arrived(p *proc, w uint64) bool {
	on := w >> 2
	switch waitReason(w & 3) {
	case waitData:
		return p.mb.slots[on].data.len() > 0
	case waitReady:
		return p.mb.slots[on].back.len() > 0
	}
	return s.w.boards[on&1].done.Load() == uint32(on)+1
}

// enqueue re-queues a processor whose awaited event arrived, on its home
// queue, and wakes a sleeper only when one is registered. Called by the
// deliverer after wake cleared its park.
func (s *scheduler) enqueue(p *proc) {
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
		if w == 0 {
			continue
		}
		wait, on := waitReason(w&3), w>>2
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

// wake ends dst's park if it waits on exactly this event, which the caller
// has already published, and enqueues dst. A failed CAS means another
// deliverer, or the worker that stored the word, took it first.
func (p *proc) wake(dst *proc, reason waitReason, on uint64) {
	if w := parkWord(reason, on); dst.mb.park.Load() == w && dst.mb.park.CompareAndSwap(w, 0) {
		p.w.sched.enqueue(dst)
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

// next pops the next entry of one of the processor's FIFOs or, the FIFO
// empty, reports false with its wait in p.wait: the caller returns to its
// worker and calls again when woken.
func next[T any](p *proc, f *fifo[T], reason waitReason, slot int) (T, bool) {
	v, ok := f.pop()
	if !ok {
		p.wait = parkWord(reason, uint64(slot))
	}
	return v, ok
}

// nextData pops the next message from a neighbor slot, or parks.
func (p *proc) nextData(slot int) (*dataMsg, bool) {
	return next(p, &p.mb.slots[slot].data, waitData, slot)
}

// nextTok pops the next rendezvous token from a neighbor slot, or parks.
func (p *proc) nextTok(slot int) (readyTok, bool) {
	return next(p, &p.mb.slots[slot].back, waitReady, slot)
}

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
