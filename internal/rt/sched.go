package rt

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// This file implements the M:N virtual-processor scheduler, the runtime's
// one execution engine: a fixed pool of worker goroutines steps runnable
// processors through explicit run states. A processor's goroutine exists —
// it is the cheapest continuation Go offers — but it only ever runs while a
// worker has resumed it, and it parks (handing its worker back to the pool)
// whenever it blocks on a virtual-time event: a message receive, a
// rendezvous ready token, or a reduction. Peers deliver those events into
// per-processor mailboxes and re-queue the parked processor, so a blocked
// receive costs a queue append instead of a blocked OS thread. With one
// worker (Config.SchedWorkers) processors run strictly one at a time.
//
// Deadlock freedom: event delivery never blocks the sender (mailbox queues
// grow as needed; PairChanCap in rt.go is what a plan budgets them for). A
// processor therefore only ever blocks as a *parked* state visible to the
// scheduler, and the scheduler can prove a global deadlock exactly: no
// processor runnable, none running, some still live means every live
// processor is parked on an event that no running processor can ever
// deliver — an immediate error naming each waiter, not a hang.

// procState is one virtual processor's run state under the scheduler.
type procState int

const (
	stateRunnable procState = iota // queued, waiting for a worker
	stateRunning                   // a worker is stepping it
	stateParked                    // blocked on a virtual-time event
	stateDone                      // body returned or aborted
)

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

// mbox is a processor's mailbox: the events peers deliver
// while it is parked or running elsewhere, plus the run state those
// deliveries inspect to decide whether to re-queue it. One mutex guards
// the whole box; senders lock only the destination's box, never their
// own, so there is no lock ordering to violate.
type mbox struct {
	mu       sync.Mutex
	state    procState
	wait     waitReason
	waitSlot int    // neighbor slot for waitData/waitReady
	waitKey  uint64 // collective message key for waitRed (see collKey)

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
	// exact key the owner is parked on, the message instead lands in the
	// direct slot (collDirect/collOk) — the owner consumes it on resume
	// without a map insert/lookup/delete round trip.
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
	cond    *sync.Cond
	runq    []*proc
	head    int
	running int // processors currently being stepped by a worker
	live    int // processors whose body has not completed
	stop    bool
	runqHi  int // high-water runnable-queue depth (under mu)

	// pendingAsync counts in-flight overlap jobs (overlap.go). Their
	// deliveries can wake parked processors, so deadlock detection must
	// not fire while any is pending.
	pendingAsync int
}

// SchedStats reports the M:N scheduler's observability counters for one
// run (Result.Sched). The counters are collected unconditionally: every increment sits on a park or delivery
// path that already holds the relevant mutex, never on a clock-charge
// fast path.
type SchedStats struct {
	Workers     int      // worker pool size the run actually used
	Steps       []int64  // processor steps executed by each worker
	Parks       [4]int64 // park events indexed by waitReason (0 unused)
	RunqHiWater int      // deepest the runnable queue ever got
	MboxHiWater int      // deepest any single mailbox queue ever got
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

// TotalParks sums the park events across wait reasons.
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
// worker keeps its token while its runq has work and releases it only
// before blocking (on an empty runq, or on exit). Per-step acquire would
// round-robin the host across every concurrent world at step granularity
// — two extra channel handoffs and a world switch per step — which on a
// single-CPU host made a nominally parallel harness measurably slower
// than the serial one. Holding is starvation-bounded: a holder releases
// no later than its world's completion, because a drained runq or the
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
	s := &scheduler{w: w, live: len(w.procs)}
	s.cond = sync.NewCond(&s.mu)
	w.sched = s
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(w.procs) {
		workers = len(w.procs)
	}

	// Every processor starts runnable in rank order; its goroutine blocks
	// on resume until a worker first steps it.
	s.runq = make([]*proc, 0, len(w.procs))
	for _, p := range w.procs {
		p.mb.state = stateRunnable
		s.runq = append(s.runq, p)
		go p.coroutine(body)
	}
	s.runqHi = len(s.runq)

	budget := budgetTokens()
	steps := make([]int64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			held := false
			for {
				p := s.tryNext()
				if p == nil {
					// About to block: give the token back so workers of
					// other concurrent worlds can run.
					if held {
						budget <- struct{}{}
						held = false
					}
					if p = s.next(); p == nil {
						return
					}
				}
				if !held {
					<-budget
					held = true
				}
				done := s.step(p)
				steps[wi]++
				s.stepped(done)
			}
		}(i)
	}
	wg.Wait()

	// Drain any overlap goroutines still packing or delivering: they touch
	// mailboxes and message buffers, so the kill pass, the stats fold and
	// gather must not run concurrently with them. Jobs never block, so the
	// wait always terminates.
	w.asyncWG.Wait()

	// Kill pass: after the workers exit (completion, abort or deadlock),
	// resume every processor that has not finished so its goroutine
	// observes the stop flag, unwinds via errAborted and terminates. No
	// worker is live, so each resume/yield handshake is private to us.
	for _, p := range w.procs {
		p.mb.mu.Lock()
		done := p.mb.state == stateDone
		p.mb.mu.Unlock()
		if !done {
			p.resume <- struct{}{}
			<-p.yield
		}
	}

	// Fold the run's scheduler counters. No worker or processor is live,
	// so the per-proc fields are quiescent.
	st := &SchedStats{Workers: workers, Steps: steps, RunqHiWater: s.runqHi}
	for _, p := range w.procs {
		for r, n := range p.parks {
			st.Parks[r] += n
		}
		if p.mb.hi > st.MboxHiWater {
			st.MboxHiWater = p.mb.hi
		}
	}
	w.schedStats = st
}

// popLocked removes and claims the runq head. Caller holds s.mu and has
// checked the queue is non-empty.
func (s *scheduler) popLocked() *proc {
	p := s.runq[s.head]
	s.runq[s.head] = nil
	s.head++
	if s.head > 64 && 2*s.head >= len(s.runq) {
		s.runq = append(s.runq[:0], s.runq[s.head:]...)
		s.head = 0
	}
	s.running++
	return p
}

// tryNext pops the next runnable processor without blocking, or returns
// nil if the queue is empty or the run is stopping. Workers use it to
// keep their budget token across consecutive steps; the blocking next
// carries the end-of-run and deadlock logic.
func (s *scheduler) tryNext() *proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop || s.head >= len(s.runq) {
		return nil
	}
	return s.popLocked()
}

// next pops the next runnable processor, blocking until one appears, the
// run ends, or a deadlock is detected.
func (s *scheduler) next() *proc {
	s.mu.Lock()
	for {
		if s.stop {
			s.mu.Unlock()
			return nil
		}
		if s.head < len(s.runq) {
			p := s.popLocked()
			s.mu.Unlock()
			return p
		}
		if s.running == 0 && s.pendingAsync == 0 {
			s.stop = true
			deadlocked := s.live > 0
			s.cond.Broadcast()
			// fail re-enters the scheduler (halt), so report outside the
			// lock.
			s.mu.Unlock()
			if deadlocked {
				// Nothing runnable, nothing running, bodies unfinished:
				// every live processor is parked on an event no one can
				// deliver. (Events are only delivered by running
				// processors and in-flight overlap jobs, and there are
				// none of either.)
				s.w.fail(fmt.Errorf("rt: scheduler deadlock: %s", s.parkedSummary()))
			}
			return nil
		}
		s.cond.Wait()
	}
}

// step resumes one processor until it parks or completes. Reports whether
// its body finished.
//
// The yield value, not mb.state, decides doneness: park() publishes
// stateParked before the processor sends its yield, so a deliverer can
// wake it and a second worker can begin another step (buffering a
// resume) while our handshake is still in flight. Re-reading mb.state
// here would then race with the processor's continued execution under
// that second worker — if the body finished in the window, both steps
// would observe stateDone and live would be decremented twice. Each
// yield instead carries its own reason, and exactly one yield per
// processor (the coroutine defer's) carries stateDone.
func (s *scheduler) step(p *proc) bool {
	p.mb.mu.Lock()
	p.mb.state = stateRunning
	p.mb.wait = waitNone
	p.mb.mu.Unlock()
	p.resume <- struct{}{}
	return <-p.yield == stateDone
}

// stepped retires one step's bookkeeping and wakes waiters when the run
// may have ended (all done, or deadlocked).
func (s *scheduler) stepped(done bool) {
	s.mu.Lock()
	s.running--
	if done {
		s.live--
	}
	if s.running == 0 && s.head >= len(s.runq) {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// asyncAdd registers one in-flight overlap job (overlap.go). Called from
// the spawning processor's coroutine while a worker is stepping it, so
// the count is always raised before running can reach zero.
func (s *scheduler) asyncAdd() {
	s.mu.Lock()
	s.pendingAsync++
	s.mu.Unlock()
}

// asyncDone retires one overlap job after its delivery completed, waking
// blocked workers so they re-evaluate the end-of-run condition.
func (s *scheduler) asyncDone() {
	s.mu.Lock()
	s.pendingAsync--
	if s.pendingAsync == 0 && s.running == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// enqueue re-queues a processor whose awaited event arrived. Called by
// the delivering processor after flipping the target parked→runnable.
func (s *scheduler) enqueue(p *proc) {
	s.mu.Lock()
	s.runq = append(s.runq, p)
	if d := len(s.runq) - s.head; d > s.runqHi {
		s.runqHi = d
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// halt stops the worker pool (abort path).
func (s *scheduler) halt() {
	s.mu.Lock()
	s.stop = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) stopped() bool {
	s.mu.Lock()
	st := s.stop
	s.mu.Unlock()
	return st
}

// parkedSummary names every parked processor and its wait reason, for the
// deadlock error.
func (s *scheduler) parkedSummary() string {
	var parts []string
	for _, p := range s.w.procs {
		p.mb.mu.Lock()
		state, wait, slot := p.mb.state, p.mb.wait, p.mb.waitSlot
		p.mb.mu.Unlock()
		if state != stateParked {
			continue
		}
		switch wait {
		case waitData, waitReady:
			parts = append(parts, fmt.Sprintf("proc %d waits for %s from proc %d", p.rank, wait, p.neighbors[slot]))
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

// coroutine is the processor goroutine's wrapper: it waits
// for its first resume, runs the body, and always reports done (normal
// return, abort unwind, or failure) with a final yield so the stepping
// worker — or the kill pass — regains control.
func (p *proc) coroutine(body func(p *proc)) {
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			p.w.fail(fmt.Errorf("rt: processor %d: %v", p.rank, r))
		}
		p.mb.mu.Lock()
		p.mb.state = stateDone
		p.mb.mu.Unlock()
		p.yield <- stateDone
	}()
	<-p.resume
	if p.w.sched.stopped() {
		panic(errAborted)
	}
	body(p)
}

// parkLocked blocks the processor until its awaited event arrives. The
// caller holds p.mb.mu with state/wait already set; parkLocked releases
// it, hands the worker back, and returns once a worker resumes us. The
// caller re-checks its condition in a loop (deliveries mark us runnable
// before the event is guaranteed still unconsumed only for single-
// consumer queues, but the loop keeps the protocol robust either way).
func (p *proc) parkLocked() {
	p.mb.mu.Unlock()
	p.yield <- stateParked
	<-p.resume
	if p.w.sched.stopped() {
		panic(errAborted)
	}
}

// park sets the wait reason and parks. Callers loop: re-lock, re-check,
// park again on spurious wakeup.
func (p *proc) park(reason waitReason, slot int) {
	p.parks[reason]++
	p.mb.state = stateParked
	p.mb.wait = reason
	p.mb.waitSlot = slot
	p.parkLocked()
}

// wake flips a parked processor runnable if it is blocked on the given
// event, returning whether the caller must enqueue it. Runs under
// dst.mb.mu.
func (mb *mbox) wakeLocked(reason waitReason, slot int) bool {
	if mb.state != stateParked || mb.wait != reason {
		return false
	}
	if (reason == waitData || reason == waitReady) && mb.waitSlot != slot {
		return false
	}
	mb.state = stateRunnable
	mb.wait = waitNone
	return true
}

// deliverData appends a message to dst's inbox from neighbor slot `slot`
// (dst-relative) and re-queues dst when it is parked on that slot. It never
// blocks: the queue holds whatever is in flight (see PairChanCap).
func (p *proc) deliverData(dst *proc, slot int, m *dataMsg) {
	dst.mb.mu.Lock()
	dst.mb.data[slot] = append(dst.mb.data[slot], m)
	if d := len(dst.mb.data[slot]) - dst.mb.dataHead[slot]; d > dst.mb.hi {
		dst.mb.hi = d
	}
	wake := dst.mb.wakeLocked(waitData, slot)
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
	wake := dst.mb.wakeLocked(waitReady, slot)
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
// of the exact key the receiver is parked on wakes it: a rank blocked at
// one hop routinely sees early arrivals (its peers' next-level hops, or
// the next reduction's first sends), and waking it for those would cost
// a full spurious park/resume round trip per early message.
func (p *proc) deliverColl(dst *proc, key uint64, m collMsg) {
	dst.mb.mu.Lock()
	if dst.mb.state == stateParked && dst.mb.wait == waitRed && dst.mb.waitKey == key {
		// The owner is parked on exactly this message: hand it over
		// directly. The direct slot cannot be occupied — the owner
		// consumes it before parking again.
		dst.mb.collDirect = m
		dst.mb.collOk = true
		dst.mb.state = stateRunnable
		dst.mb.wait = waitNone
		dst.mb.mu.Unlock()
		p.w.sched.enqueue(dst)
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
		p.park(waitData, slot)
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
		p.park(waitReady, slot)
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
		p.parks[waitRed]++
		p.mb.state = stateParked
		p.mb.wait = waitRed
		p.mb.waitKey = key
		p.parkLocked()
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
