package rt

import (
	"fmt"
	"sync/atomic"

	"commopt/internal/collective"
	"commopt/internal/ir"
	"commopt/internal/vtime"
)

// This file is the runtime's collective engine. A global reduction is one
// rendezvous: every rank writes its contribution and its clock to the
// board of the reduction's parity and parks once; the last rank to arrive
// replays the hop schedule chosen at setup (collective.Choose: world.coll)
// from those entry clocks, folds the board in rank order, publishes the
// result and wakes the rest. Each rank then walks its own hops: it charges
// the collective cost model (SendCost/RecvCost), waits for each receive
// until the replayed arrival, counts toward Result.Messages/BytesSent and
// emits one trace span per hop. No hop is a host message: a hop carries no
// values, and a rank's exit clock depends only on every rank's entry
// clock, which the replay already has. So the virtual-time cost, the
// message totals, the per-callsite profile and the Perfetto timeline all
// reflect the algorithm that ran, and cost.Predict, which prices the
// identical schedule, matches exactly. Every algorithm folds the same
// board in the same rank order, so floating-point results are
// bit-identical across algorithms, the property the collective
// differential test asserts.

// board is one reduction parity's rendezvous. Two boards suffice: a rank
// may still walk sequence s's hops against its board while another has
// entered s+1, but s+1 completes only once every rank has entered it, so
// no rank reads s's board when the first writes s+2 to it.
type board struct {
	vals   []float64    // by rank: its contribution
	clocks []vtime.Time // by rank: its entry clock, its exit clock once replayed
	avail  []vtime.Time // by receive slot (collective.Schedule.Slot): when the hop arrives
	result float64

	arrived atomic.Int32  // ranks that have written their entry
	done    atomic.Uint32 // seq+1 once seq's result and arrivals are published
}

// openBoards sizes both boards and the replay's cursors for the world's
// schedule.
func (w *world) openBoards() {
	n := len(w.procs)
	w.collAt = make([]int32, n)
	for i := range w.boards {
		w.boards[i] = board{
			vals:   make([]float64, n),
			clocks: make([]vtime.Time, n),
			avail:  make([]vtime.Time, w.coll.Slots()),
		}
	}
}

// rendezvous enters reduction seq with the processor's contribution and
// clock, once, and returns the board once seq's result and hop arrivals are
// on it. The last rank to arrive computes them; every other rank reports
// false with its wait in p.wait, and looks again when woken, its arrival
// kept in the cursor.
func (p *proc) rendezvous(seq int, op ir.ReduceOp, val float64) (*board, bool) {
	w := p.w
	b := &w.boards[seq&1]
	want := uint32(seq) + 1
	if !p.cur.arrived {
		b.vals[p.rank], b.clocks[p.rank] = val, p.clock
		if int(b.arrived.Add(1)) == len(w.procs) {
			p.complete(seq, op, b)
			return b, true
		}
		p.cur.arrived = true
	}
	if b.done.Load() != want {
		p.wait = parkWord(waitRed, uint64(seq))
		return nil, false
	}
	p.cur.arrived = false
	return b, true
}

// complete is the last arrival's part of reduction seq: it replays the hop
// schedule from every rank's entry clock, folds the board in rank order,
// publishes both and wakes the other ranks.
func (p *proc) complete(seq int, op ir.ReduceOp, b *board) {
	w := p.w
	b.arrived.Store(0)
	if err := w.coll.Replay(w.lib, b.clocks, b.avail, w.collAt); err != nil {
		panic(err) // a schedule Build pairs always completes
	}
	acc := op.Identity()
	for _, v := range b.vals {
		acc = op.Combine(acc, v)
	}
	b.result = acc
	b.done.Store(uint32(seq) + 1)
	for _, q := range w.procs {
		if q != p {
			p.wake(q, waitRed, uint64(seq))
		}
	}
}

// allreduce combines one value across all processors using the world's
// resolved collective algorithm, deterministically folding in rank order,
// and reports false where it parks in the rendezvous.
func (p *proc) allreduce(node *ir.Reduce, val float64) (float64, bool) {
	w := p.w
	if w.mesh.Size() == 1 {
		p.reductions++
		return val, true
	}
	b, ok := p.rendezvous(p.redSeq, node.Op, val)
	if !ok {
		return 0, false
	}
	p.redSeq++
	p.reductions++

	redStart := p.clock
	var cid int
	var prev ctx
	if p.obs != nil {
		cid = w.plan.CollectiveFor(node).ID
		prev = p.obs.ctx
	}
	for i, st := range w.coll.Steps[p.rank] {
		if p.obs != nil {
			// Each hop is its own context, named for the step and tagged
			// with the reduction's source position.
			p.obs.ctx = ctx{w.obs.hops[p.rank][i], w.obs.collSite(cid)}
		}
		bytes := collective.ValBytes * st.Count
		start := p.clock
		if st.Kind == collective.Send {
			p.chargeComm(collective.SendCost(w.lib, st.Count))
			p.messages++
			p.bytesSent += int64(bytes)
			if p.obs != nil {
				p.obs.add(event{kind: evHopSend, d: p.clock.Sub(start), v: int64(bytes), peer: int32(st.Peer), x: uint8(st.Level)})
			}
			continue
		}
		// Receives follow the rank's schedule order; the hop left its
		// sender WireDelay before it arrived.
		t := b.avail[w.coll.Slot(p.rank, i)]
		p.waitFor(t, waitRed, st.Peer, t.Add(-collective.WireDelay(w.lib, st.Count)))
		p.chargeComm(collective.RecvCost(w.lib, st.Count))
		if p.obs != nil {
			p.obs.add(event{kind: evHopRecv, d: p.clock.Sub(start), v: int64(bytes), peer: int32(st.Peer), x: uint8(st.Level)})
		}
	}
	if p.obs != nil {
		p.obs.ctx = ctx{w.obs.phase(cid), w.obs.collSite(cid)}
		p.obs.add(event{kind: evPhase, d: p.clock.Sub(redStart)})
		p.obs.ctx = prev
	}
	return b.result, true
}

// collStepName labels one hop: direction, round and peer.
func collStepName(st collective.Step) string {
	step := "send L%d to %d"
	if st.Kind == collective.Recv {
		step = "recv L%d from %d"
	}
	if st.Bcast {
		step = "bcast " + step
	}
	return fmt.Sprintf("red "+step, st.Level, st.Peer)
}
