package rt

import (
	"fmt"
	"sync"

	"commopt/internal/collective"
	"commopt/internal/ir"
	"commopt/internal/vtime"
)

// This file is the runtime's collective engine: global reductions execute
// the hop schedule chosen at setup (collective.Choose: world.collAlg,
// collSteps, collTo) as real messages through the same
// mailbox scheduler that carries point-to-point traffic. Every hop
// charges the collective cost model (SendCost/RecvCost/WireDelay), counts
// toward Result.Messages/BytesSent and emits its own trace span, so the
// virtual-time cost, the message totals, the per-callsite profile and the
// Perfetto timeline all reflect the algorithm that actually ran — and
// cost.Predict, which prices the identical schedule, matches exactly.
//
// All algorithms gather windows of raw contributions (held on the shared
// board, world.collContrib — hops move window metadata, not values) and
// fold in strict rank order at the first broadcast send, or locally once
// a rank's window covers everyone, so floating-point results are
// bit-identical across algorithms — the property the collective
// differential test asserts.

// collMsg is one collective hop's message. Hops carry no value payload:
// gather hops hand over the sender's contiguous window of the shared
// contribution board (world.collContrib) by announcing its start index,
// and only broadcast hops carry a scalar, the folded result, in val. t
// is the virtual time the message reaches the receiver. Keeping the
// message constant-size regardless of window width is what makes wide
// butterfly hops as cheap to deliver in host time as scalar star hops
// even though they are charged the full per-byte virtual cost. The
// receive slot it lands in (mbox.coll) names its sequence and source.
type collMsg struct {
	start int32 // grid.MaxProcs is 2^16
	val   float64
	sent  vtime.Time // sender's clock when the hop departed (critical-path edge)
	t     vtime.Time
}

// foldCell caches one contribution board's rank-order fold, keyed by the
// reduction sequence it belongs to (-1 until first use). Butterfly ends
// with every rank holding the full window; the cache turns P identical
// O(P) folds into one fold plus P-1 cached reads. The cached value is a
// deterministic function of the board, so sharing it cannot perturb
// bit-identical results.
type foldCell struct {
	mu  sync.Mutex
	seq int
	val float64
}

// foldOf returns the rank-order fold of reduction seq's contribution
// board, computing it on first request. Callers must hold a complete
// window (checked in allreduce), which guarantees the happens-before
// chain from every contribution write.
func (w *world) foldOf(seq int, op ir.ReduceOp) float64 {
	c := &w.collFold[seq&1]
	c.mu.Lock()
	if c.seq != seq {
		acc := op.Identity()
		for _, v := range w.collContrib[seq&1] {
			acc = op.Combine(acc, v)
		}
		c.val, c.seq = acc, seq
	}
	v := c.val
	c.mu.Unlock()
	return v
}

// openInboxes gives every processor its collective slots: two per receive
// step of the chosen schedule, one for each reduction parity, all carved
// from one allocation.
func (w *world) openInboxes(coll *collective.Schedule) {
	n := 0
	for r := range w.procs {
		n += coll.Recvs(r)
	}
	slots := make([]collSlot, 2*n)
	for r, p := range w.procs {
		k := 2 * coll.Recvs(r)
		p.mb.coll, slots = slots[:k:k], slots[k:]
	}
}

// collPeer is the rank that sends into receive slot k of rank, for the
// deadlock diagnostic.
func (w *world) collPeer(rank, k int) int {
	for i, st := range w.collSteps[rank] {
		if st.Kind == collective.Recv && int(w.collTo[rank][i]) == k {
			return st.Peer
		}
	}
	return -1
}

// allreduce combines one value across all processors using the world's
// resolved collective algorithm, deterministically folding in rank
// order.
func (p *proc) allreduce(node *ir.Reduce, val float64) float64 {
	w := p.w
	op := node.Op
	seq := p.redSeq
	p.redSeq++
	p.reductions++
	n := w.mesh.Size()
	if n == 1 {
		return val
	}

	redStart := p.clock
	var cid int
	var prev ctx
	if p.obs != nil {
		cid = w.plan.CollectiveFor(node).ID
		prev = p.obs.ctx
	}

	w.collContrib[seq&1][p.rank] = val
	base, cnt := p.rank, 1
	var result float64
	haveResult := false
	fold := func() float64 {
		if base != 0 || cnt != n {
			panic(fmt.Sprintf("rt: proc %d folds reduction %d with incomplete window [%d,+%d) of %d",
				p.rank, seq, base, cnt, n))
		}
		return w.foldOf(seq, op)
	}

	for i, st := range w.collSteps[p.rank] {
		k := int(w.collTo[p.rank][i])
		if p.obs != nil {
			// Each hop is its own context, named for the step and tagged
			// with the reduction's source position.
			p.obs.ctx = ctx{w.obs.hops[p.rank][i], w.obs.collSite(cid)}
		}
		bytes := collective.ValBytes * st.Count
		start := p.clock
		if st.Kind == collective.Send {
			var m collMsg
			if st.Bcast {
				if !haveResult {
					result, haveResult = fold(), true
				}
				m.val = result
			} else {
				if st.Count != cnt {
					panic(fmt.Sprintf("rt: proc %d sends %d reduction values but window holds %d", p.rank, st.Count, cnt))
				}
				m.start = int32(base)
			}
			p.chargeComm(collective.SendCost(w.lib, st.Count))
			m.sent = p.clock
			m.t = p.clock.Add(collective.WireDelay(w.lib, st.Count))
			p.messages++
			p.bytesSent += int64(bytes)
			if p.obs != nil {
				p.obs.add(event{kind: evHopSend, d: p.clock.Sub(start), v: int64(bytes), peer: int32(st.Peer), x: uint8(st.Level)})
			}
			p.deliverColl(w.procs[st.Peer], seq, k, m)
		} else {
			// Receives follow the rank's deterministic schedule order, not
			// arrival order — the virtual clock's wait/charge sequence must
			// not depend on scheduling — so early arrivals wait in their
			// receive slots.
			m := p.nextColl(seq, k)
			p.waitFor(m.t, waitRed, st.Peer, m.sent)
			p.chargeComm(collective.RecvCost(w.lib, st.Count))
			if st.Bcast {
				result, haveResult = m.val, true
			} else {
				switch {
				case int(m.start) == base+cnt:
					cnt += st.Count
				case int(m.start)+st.Count == base:
					base, cnt = int(m.start), cnt+st.Count
				default:
					panic(fmt.Sprintf("rt: proc %d non-contiguous reduction gather: window [%d,+%d), got start %d",
						p.rank, base, cnt, m.start))
				}
			}
			if p.obs != nil {
				p.obs.add(event{kind: evHopRecv, d: p.clock.Sub(start), v: int64(bytes), peer: int32(st.Peer), x: uint8(st.Level)})
			}
		}
	}
	if !haveResult {
		// Butterfly: no broadcast phase — every rank holds the full
		// vector and folds locally, in the same rank order.
		result = fold()
	}
	if p.obs != nil {
		p.obs.ctx = ctx{w.obs.phase(cid), w.obs.collSite(cid)}
		p.obs.add(event{kind: evPhase, d: p.clock.Sub(redStart)})
		p.obs.ctx = prev
	}
	return result
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
