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
// Each worker owns a FIFO run queue; a processor joins that of its fixed home
// worker, rank*workers/procs — a band of mesh rows, so neighbours mostly share
// one and run where their data is. A worker steals another queue's head only
// when its own is empty and sleeps only when all are; a wake-up signals the
// home worker if it sleeps, else a sleeper if the home queue holds two.
//
// Deadlock freedom: event delivery never blocks the sender (mailbox queues
// grow as needed; PairChanCap in rt.go is what a plan budgets them for). A
// processor therefore only ever blocks as a *parked* state visible to the
// scheduler, and the scheduler can prove a global deadlock exactly: no
// processor runnable, none running, some still live means every live
// processor is parked on an event that no running processor can ever
// deliver — an immediate error naming each waiter, not a hang.

// waitReason says which event a parked processor is blocked on.
type waitReason int

const (
	waitNone  waitReason = iota
	waitData             // message from a neighbor slot (recvFrom)
	waitReady            // rendezvous ready token from a neighbor slot
	waitRed              // reduction contribution or broadcast
)

func (r waitReason) String() string {
	switch r {
	case waitData:
		return "data"
	case waitReady:
		return "ready token"
	case waitRed:
		return "reduction"
	}
	return "nothing"
}

// mbox is a processor's mailbox: the events peers deliver while it is
// parked or running elsewhere, plus the wait those deliveries inspect to
// decide whether to re-queue it. One mutex guards the whole box; senders
// lock only the destination's box, never their own, so there is no lock
// ordering to violate.
//
// wait and parked spell the park protocol. The owner requests a park by
// setting wait (and waitOn) and switching to its worker; the worker commits
// it by setting parked. A delivery of exactly the awaited event clears
// wait either way (wakeLocked) and re-queues the owner only if the park
// was committed — before that the worker still holds the processor and,
// finding wait cleared, simply steps it again.
type mbox struct {
	mu     sync.Mutex
	wait   waitReason
	waitOn uint64 // neighbor slot for waitData/waitReady, collKey for waitRed
	parked bool   // the worker that stepped the owner committed the park

	// The data and token FIFOs pop by advancing a head index and reset
	// to the front once drained, so one backing array per slot is reused
	// for the whole run. (Popping by reslicing walked the slice off the
	// front of its array, forcing the next append to reallocate — one
	// fresh array per fill/drain cycle, pure garbage at 4096 procs.)
	data     [][]*dataMsg // data[slot]: message FIFO from that neighbor
	dataHead []int
	toks     [][]readyTok // toks[slot]: rendezvous token FIFO from that neighbor
	toksHead []int
	rets     [][]*dataMsg // rets[slot]: recycled buffers returned by that neighbor
	// coll is the collective inbox, keyed by (sequence, source) — see
	// collKey. Receives follow the rank's deterministic hop schedule, not
	// arrival order, so a keyed lookup replaces what a FIFO would force
	// into an O(P) scan at the star root. Allocated on first delivery;
	// reduction-free programs never pay for it. When the delivery is the
	// exact key the owner waits on, the message instead lands in the
	// direct slot (collDirect/collOk) — the owner consumes it on its next
	// step without a map insert/lookup/delete round trip.
	coll       map[uint64]collMsg
	collDirect collMsg
	collOk     bool

	// hi is the high-water depth of any single inbox queue (one slot's
	// data FIFO, one slot's token FIFO, or the keyed collective inbox) —
	// how far ahead a peer ever ran of this processor's consumption.
	// Written by deliverers under mu, folded into SchedStats at the end
	// of the run.
	hi int
}

// scheduler runs one world's processors on a bounded worker pool.
type scheduler struct {
	w *world

	mu      sync.Mutex
	queues  []runq        // queues[wi]: worker wi's home queue
	queued  int           // runnable processors, summed over the queues
	running int           // processors currently being stepped by a worker
	live    int           // processors whose body has not completed
	runqHi  int           // high-water mark of queued
	steals  int64         // pops a worker took from a queue not its own
	budget  chan struct{} // budgetTokens(); next returns its token to sleep

	// stop ends the run (completion, abort or deadlock). Stored under mu,
	// so a worker blocked in next cannot miss it; resumed processors read
	// it without the lock.
	stop atomic.Bool
}

// runq is one worker's FIFO, popped by advancing head, under scheduler.mu.
type runq struct {
	ps   []*proc
	head int
	cond sync.Cond
	idle bool // the worker waits on cond; whoever signals it clears this
}

// SchedStats reports the M:N scheduler's observability counters for one
// run (Result.Sched). The counters are collected unconditionally: every increment sits on a park or delivery
// path that already holds the relevant mutex, never on a clock-charge
// fast path.
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
	RunqHiWater  int   // most processors ever runnable at once, over all queues
	MboxHiWater  int   // deepest any single mailbox queue ever got
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
	s := &scheduler{w: w, live: len(w.procs), budget: budgetTokens()}
	w.sched = s
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(w.procs) {
		workers = len(w.procs)
	}
	s.queues = make([]runq, workers)
	for wi := range s.queues {
		s.queues[wi].cond.L = &s.mu
	}

	// Every processor starts runnable on its home queue, in rank order; its
	// coroutine first runs when a worker first steps it.
	for _, p := range w.procs {
		p.next, p.stop = iter.Pull(p.coroutine(body))
		p.home = p.rank * workers / len(w.procs)
		s.queues[p.home].ps = append(s.queues[p.home].ps, p)
	}
	s.queued, s.runqHi = len(w.procs), len(w.procs)

	steps := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var n int64 // steps[wi], kept off the line the other workers write
			// The token is held across steps and given back while next
			// sleeps: only a token holder claims a processor.
			<-s.budget
			for p := s.next(wi); p != nil; p = s.next(wi) {
				for p != nil {
					p = s.stepped(wi, s.step(p, &n))
				}
			}
			s.budget <- struct{}{}
			steps[wi] = n
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
	st := &SchedStats{Workers: workers, Steps: steps, Steals: s.steals, RunqHiWater: s.runqHi}
	for _, p := range w.procs {
		for r, n := range p.parks {
			st.Parks[r] += n
		}
		st.ParksAverted += p.parksAverted
		if p.mb.hi > st.MboxHiWater {
			st.MboxHiWater = p.mb.hi
		}
	}
	w.schedStats = st
}

// popLocked claims the head of worker wi's queue or, that being empty, steals
// the head of the next non-empty one; nil when none is. Caller holds s.mu.
func (s *scheduler) popLocked(wi int) *proc {
	q, i := &s.queues[wi], 0
	for q.head == len(q.ps) {
		if i++; i == len(s.queues) {
			return nil
		}
		q = &s.queues[(wi+i)%len(s.queues)]
	}
	p := q.ps[q.head]
	q.ps[q.head] = nil
	q.head++
	if q.head > 64 && 2*q.head >= len(q.ps) {
		q.ps = append(q.ps[:0], q.ps[q.head:]...)
		q.head = 0
	}
	if i > 0 {
		s.steals++
	}
	s.queued--
	s.running++
	return p
}

// broadcastLocked wakes every waiting worker to see the run stop or end.
func (s *scheduler) broadcastLocked() {
	for wi := range s.queues {
		s.queues[wi].cond.Broadcast()
	}
}

// next pops worker wi's next runnable processor, blocking until one
// appears, the run ends, or a deadlock is detected.
func (s *scheduler) next(wi int) *proc {
	s.mu.Lock()
	for {
		if s.stop.Load() {
			s.mu.Unlock()
			return nil
		}
		if p := s.popLocked(wi); p != nil {
			s.mu.Unlock()
			return p
		}
		if s.running == 0 {
			s.stop.Store(true)
			deadlocked := s.live > 0
			s.broadcastLocked()
			// fail re-enters the scheduler (halt), so report outside the
			// lock.
			s.mu.Unlock()
			if deadlocked {
				// Nothing runnable, nothing running, bodies unfinished:
				// every live processor is parked on an event no one can
				// deliver. (Events are only delivered by running
				// processors, and there are none.)
				s.w.fail(fmt.Errorf("rt: scheduler deadlock: %s", s.parkedSummary()))
			}
			return nil
		}
		s.queues[wi].idle = true
		s.budget <- struct{}{} // never blocks: this worker holds a token
		s.queues[wi].cond.Wait()
		s.queues[wi].idle = false
		s.mu.Unlock()
		<-s.budget
		s.mu.Lock()
	}
}

// step runs one processor until it parks for good or completes, counting
// each switch into it in *steps, and reports whether its body finished
// (next says so exactly once). A processor that comes back with a park
// request still belongs to this worker — nobody else can step it, and
// deliveries do not enqueue it — until the park is committed here, under
// its mailbox lock: if the awaited event arrived first (wakeLocked cleared
// the wait), the park is averted and the processor runs on.
func (s *scheduler) step(p *proc, steps *int64) (done bool) {
	for {
		*steps++
		if _, more := p.next(); !more {
			return true
		}
		p.mb.mu.Lock()
		if p.mb.wait != waitNone {
			p.mb.parked = true
			p.mb.mu.Unlock()
			return false
		}
		p.parksAverted++
		p.mb.mu.Unlock()
	}
}

// stepped retires worker wi's step bookkeeping and, in the same critical
// section, claims its next runnable processor: nil when every queue is
// empty or the run is stopping, which is also when blocked workers are
// woken to see whether the run has ended (all done, or deadlocked).
func (s *scheduler) stepped(wi int, done bool) *proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if done {
		s.live--
	}
	var p *proc
	if !s.stop.Load() {
		p = s.popLocked(wi)
	}
	if p == nil && s.running == 0 {
		s.broadcastLocked()
	}
	return p
}

// enqueue re-queues a processor whose awaited event arrived, on its home
// queue. Called by the deliverer after wakeLocked ended its committed park.
func (s *scheduler) enqueue(p *proc) {
	s.mu.Lock()
	q := &s.queues[p.home]
	q.ps = append(q.ps, p)
	s.queued++
	s.runqHi = max(s.runqHi, s.queued)
	if q.idle || len(s.queues) > 1 && len(q.ps)-q.head > 1 {
		for i := range s.queues { // the home worker first
			if o := &s.queues[(p.home+i)%len(s.queues)]; o.idle {
				o.idle = false
				o.cond.Signal()
				break
			}
		}
	}
	s.mu.Unlock()
}

// halt stops the worker pool (abort path).
func (s *scheduler) halt() {
	s.mu.Lock()
	s.stop.Store(true)
	s.broadcastLocked()
	s.mu.Unlock()
}

// parkedSummary names every parked processor and its wait reason, for the
// deadlock error.
func (s *scheduler) parkedSummary() string {
	var parts []string
	for _, p := range s.w.procs {
		p.mb.mu.Lock()
		parked, wait, on := p.mb.parked, p.mb.wait, p.mb.waitOn
		p.mb.mu.Unlock()
		if !parked {
			continue
		}
		switch wait {
		case waitData, waitReady:
			parts = append(parts, fmt.Sprintf("proc %d waits for %s from proc %d", p.rank, wait, p.neighbors[on]))
		default:
			parts = append(parts, fmt.Sprintf("proc %d waits for %s", p.rank, wait))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no parked processors (internal error)"
	}
	return strings.Join(parts, "; ")
}

// coroutine is the sequence iter.Pull runs as the processor's coroutine:
// the body, with every switch back to the worker (parkLocked) as one
// yield. The recover sits inside the sequence because iter.Pull re-raises a
// coroutine's panic in whoever called next or stop — a worker, or the kill
// pass.
func (p *proc) coroutine(body func(p *proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.toWorker = yield
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				err, ok := r.(error) // a program error keeps its position for errors.As
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				p.w.fail(fmt.Errorf("rt: processor %d: %w", p.rank, err))
			}
		}()
		body(p)
	}
}

// parkLocked blocks the processor until its awaited event arrives. The
// caller holds p.mb.mu and found the event missing; parkLocked records the
// wait as a request, releases the lock and switches to the worker that
// stepped us, which commits the park or — the event having arrived in
// between — switches straight back (scheduler.step). It returns once a
// worker steps us again; the caller re-locks and re-checks its condition
// in a loop. A false yield is the kill pass stopping us.
func (p *proc) parkLocked(reason waitReason, on uint64) {
	p.parks[reason]++
	p.mb.wait, p.mb.waitOn = reason, on
	p.mb.mu.Unlock()
	if !p.toWorker(struct{}{}) || p.w.sched.stop.Load() {
		panic(errAborted)
	}
}

// wakeLocked ends the owner's wait if it is for exactly this event,
// returning whether the caller must enqueue it: only when the park was
// already committed — a park still at the request stage is averted by the
// worker holding the processor. Runs under the owner's mb.mu, on a peer's
// coroutine.
func (mb *mbox) wakeLocked(reason waitReason, on uint64) bool {
	if mb.wait != reason || mb.waitOn != on {
		return false
	}
	mb.wait = waitNone
	wake := mb.parked
	mb.parked = false
	return wake
}

// deliverData appends a message to dst's inbox from neighbor slot `slot`
// (dst-relative) and wakes dst when it waits on that slot. It never
// blocks: the queue holds whatever is in flight (see PairChanCap).
func (p *proc) deliverData(dst *proc, slot int, m *dataMsg) {
	dst.mb.mu.Lock()
	dst.mb.data[slot] = append(dst.mb.data[slot], m)
	if d := len(dst.mb.data[slot]) - dst.mb.dataHead[slot]; d > dst.mb.hi {
		dst.mb.hi = d
	}
	wake := dst.mb.wakeLocked(waitData, uint64(slot))
	dst.mb.mu.Unlock()
	if wake {
		p.w.sched.enqueue(dst)
	}
}

// deliverTok appends a rendezvous ready token to dst's inbox.
func (p *proc) deliverTok(dst *proc, slot int, tok readyTok) {
	dst.mb.mu.Lock()
	dst.mb.toks[slot] = append(dst.mb.toks[slot], tok)
	if d := len(dst.mb.toks[slot]) - dst.mb.toksHead[slot]; d > dst.mb.hi {
		dst.mb.hi = d
	}
	wake := dst.mb.wakeLocked(waitReady, uint64(slot))
	dst.mb.mu.Unlock()
	if wake {
		p.w.sched.enqueue(dst)
	}
}

// deliverRet hands a recycled buffer back to its sender, best-effort:
// nobody ever waits on returns, and the stash is bounded like the free
// lists.
func (p *proc) deliverRet(dst *proc, slot int, m *dataMsg) {
	dst.mb.mu.Lock()
	if len(dst.mb.rets[slot]) < poolCap {
		dst.mb.rets[slot] = append(dst.mb.rets[slot], m)
	}
	dst.mb.mu.Unlock()
}

// deliverColl inserts a collective hop message into dst's keyed inbox.
// The (sequence, source) key is unique among undelivered messages (see
// collKey); a duplicate insert means the schedules are corrupt, which
// must abort rather than silently overwrite a value. Only the delivery
// of the exact key the receiver waits on wakes it: a rank blocked at
// one hop routinely sees early arrivals (its peers' next-level hops, or
// the next reduction's first sends), and waking it for those would cost
// a full spurious park/resume round trip per early message.
func (p *proc) deliverColl(dst *proc, key uint64, m collMsg) {
	dst.mb.mu.Lock()
	if dst.mb.wait == waitRed && dst.mb.waitOn == key {
		// The owner waits on exactly this message: hand it over
		// directly. The direct slot cannot be occupied — the owner
		// consumes it before parking again.
		dst.mb.collDirect = m
		dst.mb.collOk = true
		wake := dst.mb.wakeLocked(waitRed, key)
		dst.mb.mu.Unlock()
		if wake {
			p.w.sched.enqueue(dst)
		}
		return
	}
	if dst.mb.coll == nil {
		dst.mb.coll = map[uint64]collMsg{}
	} else if _, dup := dst.mb.coll[key]; dup {
		dst.mb.mu.Unlock()
		panic(fmt.Sprintf("rt: proc %d: duplicate reduction message seq %d from proc %d", dst.rank, m.seq, m.src))
	}
	dst.mb.coll[key] = m
	d := len(dst.mb.coll)
	if dst.mb.collOk {
		d++
	}
	if d > dst.mb.hi {
		dst.mb.hi = d
	}
	dst.mb.mu.Unlock()
}

// nextData pops the next message from a neighbor slot, parking until one
// arrives.
func (p *proc) nextData(slot int) *dataMsg {
	for {
		p.mb.mu.Lock()
		if q, h := p.mb.data[slot], p.mb.dataHead[slot]; h < len(q) {
			m := q[h]
			q[h] = nil
			if h+1 == len(q) {
				p.mb.data[slot] = q[:0]
				p.mb.dataHead[slot] = 0
			} else {
				p.mb.dataHead[slot] = h + 1
			}
			p.mb.mu.Unlock()
			return m
		}
		p.parkLocked(waitData, uint64(slot))
	}
}

// nextTok pops the next rendezvous token from a neighbor slot, parking
// until one arrives.
func (p *proc) nextTok(slot int) readyTok {
	for {
		p.mb.mu.Lock()
		if q, h := p.mb.toks[slot], p.mb.toksHead[slot]; h < len(q) {
			tok := q[h]
			q[h] = readyTok{}
			if h+1 == len(q) {
				p.mb.toks[slot] = q[:0]
				p.mb.toksHead[slot] = 0
			} else {
				p.mb.toksHead[slot] = h + 1
			}
			p.mb.mu.Unlock()
			return tok
		}
		p.parkLocked(waitReady, uint64(slot))
	}
}

// nextColl takes the collective message with the given key, parking
// until exactly that key is delivered (deliverColl's wake condition);
// the loop guards against any residual spurious resume.
func (p *proc) nextColl(key uint64) collMsg {
	for {
		p.mb.mu.Lock()
		if p.mb.collOk {
			m := p.mb.collDirect
			p.mb.collOk = false
			p.mb.mu.Unlock()
			return m
		}
		if m, ok := p.mb.coll[key]; ok {
			delete(p.mb.coll, key)
			p.mb.mu.Unlock()
			return m
		}
		p.parkLocked(waitRed, key)
	}
}

// drainRets moves every buffer a peer returned into the send free list
// (message-passing recycling).
func (p *proc) drainRets(slot int) {
	p.mb.mu.Lock()
	q := p.mb.rets[slot]
	p.mb.rets[slot] = q[:0]
	for _, m := range q {
		if len(p.sendPool[slot]) >= poolCap {
			break
		}
		p.sendPool[slot] = append(p.sendPool[slot], m)
	}
	p.mb.mu.Unlock()
}
