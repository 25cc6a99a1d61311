package rt

import (
	"commopt/internal/comm"
	"commopt/internal/ir"
)

// This file implements host-side comm/compute overlap: when the comm plan
// pipelines a transfer (SR early, DN late), the host-time cost of packing
// and delivering a large message need not serialize with the kernel
// execution of the statements in between. send() computes every
// virtual-time value, statistic and trace event for the message
// synchronously — so simulated results are bit-identical with overlap on
// or off — and defers only the host work (pr.pack into the flat buffer
// and the mailbox delivery) to a goroutine. The job joins at the
// transfer's SV call, the IRONMAN point after which the source data may
// be overwritten; as defense in depth, any array statement whose LHS an
// in-flight job still reads joins that job first (assignArray/fusedExec).
//
// A job always terminates: the message owns its flat buffer and deliverData
// never blocks. Ordering stays intact: per (pair, tag) stream at most one
// message is in flight — a transfer's next SR follows its previous SV,
// which joined — and cross-tag reordering is already handled by
// recvTagged. The scheduler counts pending jobs (pendingAsync) so deadlock
// detection never fires while a delivery that could wake a parked
// processor is still in flight.

// overlapMinDoubles is the smallest packed payload (in float64 slots)
// worth deferring to a goroutine: below it, the spawn plus the join
// handshake costs more host time than the memcpy-scale pack saves. 512
// doubles is a 4 KB pack — around the point where gathering strided
// rectangles stops being cheaper than a goroutine handoff.
const overlapMinDoubles = 512

// overlapJob is one in-flight async send: the transfer it belongs to, the
// source arrays its pack is still reading, and the channel closed when
// the pack and delivery have completed.
type overlapJob struct {
	tid   int
	items []*ir.ArraySym
	done  chan struct{}
}

// startAsyncSend defers a prepared message's pack and delivery to a
// goroutine. The message's virtual-time fields, statistics and trace
// events are already recorded; only host work leaves this coroutine.
func (p *proc) startAsyncSend(t *comm.Transfer, pr *packPair, nb *neighbor, m *dataMsg) {
	w := p.w
	if p.inflight == nil {
		p.inflight = make([]int32, len(w.prog.Arrays))
	}
	for _, it := range t.Items {
		p.inflight[it.ID]++
	}
	p.inflightN++
	p.asyncSends++
	job := overlapJob{tid: t.ID, items: t.Items, done: make(chan struct{})}
	p.overlapJobs = append(p.overlapJobs, job)
	w.sched.asyncAdd()
	w.asyncWG.Add(1)
	dst := w.procs[nb.rank]
	back, data := nb.back, p.kctx.data
	go func() {
		pr.pack(m.flat, data)
		p.deliverData(dst, back, m)
		close(job.done)
		w.asyncWG.Done()
		w.sched.asyncDone()
	}()
}

// retire removes job index i from the in-flight list after its done
// channel closed, keeping the per-array counters exact.
func (p *proc) retireJob(j overlapJob) {
	for _, it := range j.items {
		p.inflight[it.ID]--
	}
	p.inflightN--
}

// joinSends blocks until every in-flight async send of the given transfer
// has packed and delivered. Called at the transfer's SV call.
func (p *proc) joinSends(tid int) {
	if len(p.overlapJobs) == 0 {
		return
	}
	kept := p.overlapJobs[:0]
	for _, j := range p.overlapJobs {
		if j.tid != tid {
			kept = append(kept, j)
			continue
		}
		<-j.done
		p.retireJob(j)
	}
	p.overlapJobs = kept
}

// joinArray blocks until every in-flight async send still reading the
// given array has completed, so a statement may overwrite it. The IRONMAN
// schedule already orders overwrites after the transfer's SV (which
// joins); this is the defense-in-depth guard the kernel engines call
// before storing to an array with a nonzero inflight count.
func (p *proc) joinArray(id int) {
	kept := p.overlapJobs[:0]
	for _, j := range p.overlapJobs {
		carries := false
		for _, it := range j.items {
			if it.ID == id {
				carries = true
				break
			}
		}
		if !carries {
			kept = append(kept, j)
			continue
		}
		<-j.done
		p.retireJob(j)
	}
	p.overlapJobs = kept
}
