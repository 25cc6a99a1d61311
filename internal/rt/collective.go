package rt

import (
	"fmt"
	"sync"

	"commopt/internal/collective"
	"commopt/internal/critpath"
	"commopt/internal/ir"
	"commopt/internal/trace"
	"commopt/internal/vtime"
)

// This file is the runtime's collective engine: global reductions execute
// the per-rank hop schedule of the algorithm resolved at setup
// (world.collAlg, package collective) as real messages through the same
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
// even though they are charged the full per-byte virtual cost.
type collMsg struct {
	seq   int
	src   int
	start int
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

// collKey builds the mailbox key of one hop's message. Matching is by
// (sequence, source): each reduction sends a rank at most one gather and
// one broadcast message from any given source *after the previous one
// from that source was consumed*, and sequences retire in order, so the
// pair is unique among undelivered messages. Source ranks fit 17 bits
// (grid.MaxProcs is 2^16).
func collKey(seq, src int) uint64 { return uint64(seq)<<17 | uint64(src) }

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
	msgs0, bytes0 := p.messages, p.bytesSent
	comm0, wait0 := p.commT, p.waitT

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

	// Critical-path attribution: each hop gets its own context naming the
	// step, tagged with the reduction's source position; the surrounding
	// statement context is restored after the last hop.
	var csite, prevLabel, prevSite string
	cplFirst := true
	if p.cpl != nil {
		if c := w.plan.CollectiveFor(node); c != nil {
			csite = c.Pos.String()
		}
	}

	for _, st := range w.collSteps[p.rank] {
		if p.cpl != nil {
			pl, ps := p.cpl.Context(collStepName(st), csite)
			if cplFirst {
				prevLabel, prevSite, cplFirst = pl, ps, false
			}
		}
		bytes := collective.ValBytes * st.Count
		if st.Kind == collective.Send {
			m := collMsg{seq: seq, src: p.rank}
			if st.Bcast {
				if !haveResult {
					result, haveResult = fold(), true
				}
				m.val = result
			} else {
				if st.Count != cnt {
					panic(fmt.Sprintf("rt: proc %d sends %d reduction values but window holds %d", p.rank, st.Count, cnt))
				}
				m.start = base
			}
			start := p.clock
			p.chargeComm(collective.SendCost(w.lib, st.Count))
			m.sent = p.clock
			m.t = p.clock.Add(collective.WireDelay(w.lib, st.Count))
			p.messages++
			p.bytesSent += int64(bytes)
			if p.met != nil {
				p.met.msgSize.Observe(int64(bytes))
			}
			if p.tr != nil {
				p.tr.Add(trace.Event{Kind: trace.KindReduce, Start: start, Dur: p.clock.Sub(start),
					Name: collStepName(st), A0: int64(st.Level), A1: int64(bytes), A2: int64(st.Peer)})
			}
			p.deliverColl(w.procs[st.Peer], collKey(seq, p.rank), m)
		} else {
			start := p.clock
			// Receives follow the rank's deterministic schedule order, not
			// arrival order — the virtual clock's wait/charge sequence must
			// not depend on scheduling — so early arrivals wait in the
			// keyed mailbox.
			m := p.nextColl(collKey(seq, st.Peer))
			p.waitEdge(m.t, "wait reduce", critpath.Reduce, st.Peer, m.sent)
			p.chargeComm(collective.RecvCost(w.lib, st.Count))
			if st.Bcast {
				result, haveResult = m.val, true
			} else {
				switch {
				case m.start == base+cnt:
					cnt += st.Count
				case m.start+st.Count == base:
					base, cnt = m.start, cnt+st.Count
				default:
					panic(fmt.Sprintf("rt: proc %d non-contiguous reduction gather: window [%d,+%d), got start %d",
						p.rank, base, cnt, m.start))
				}
			}
			if p.tr != nil {
				p.tr.Add(trace.Event{Kind: trace.KindReduce, Start: start, Dur: p.clock.Sub(start),
					Name: collStepName(st), A0: int64(st.Level), A1: int64(bytes), A2: int64(st.Peer)})
			}
		}
	}
	if p.cpl != nil && !cplFirst {
		p.cpl.Context(prevLabel, prevSite)
	}
	if !haveResult {
		// Butterfly: no broadcast phase — every rank holds the full
		// vector and folds locally, in the same rank order.
		result = fold()
	}

	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindReduce, Start: redStart, Dur: p.clock.Sub(redStart),
			Name: "allreduce " + op.String() + " (" + w.collAlg.String() + ")", A0: -1})
	}
	if p.cprof != nil {
		if c := w.plan.CollectiveFor(node); c != nil {
			a := p.cprof[c]
			if a == nil {
				a = &profAcc{}
				p.cprof[c] = a
			}
			a.calls++
			a.msgs += p.messages - msgs0
			a.bytes += p.bytesSent - bytes0
			a.comm += p.commT - comm0
			a.wait += p.waitT - wait0
		}
	}
	return result
}

// collStepName labels one hop's trace span: direction, round and peer.
func collStepName(st collective.Step) string {
	verb := "send"
	prep := "to"
	if st.Kind == collective.Recv {
		verb = "recv"
		prep = "from"
	}
	if st.Bcast {
		verb = "bcast " + verb
	}
	return fmt.Sprintf("red %s L%d %s %d", verb, st.Level, prep, st.Peer)
}
