package rt

import "commopt/internal/vtime"

// This file is the communication engine's buffer pool: flat message
// buffers recycled between each directed processor pair so the steady-state
// comm path allocates nothing. Recycling piggybacks on plumbing that already
// synchronizes the pair:
//
//   - Rendezvous libraries (SHMEM): the receiver stashes finished
//     messages in retPool and the next DR's ready token carries one back
//     to the sender. The token delivery already exists, so recycling
//     costs no extra synchronization.
//   - Message-passing libraries (PVM, NX): there is no token traffic, so
//     the receiver hands finished messages back through the back-channel
//     of the sender's mailbox slot (deliverRet), and the sender drains
//     them before allocating (drainRets). Either side may drop a buffer
//     when full — recycling is best-effort and purely host-side.
//
// A message returned through either path was fully unpacked before its
// producer pushed it, and the sender reuses it only after popping it: the
// FIFO's tail store and load (fifo.go) order the reuse after the unpack
// (go test -race runs the differential suite to prove it).

// readyTok travels dst→src through a mailbox slot's back-channel: the
// rendezvous token of the destination-ready protocol plus, optionally, a
// recycled message for the sender's free list (m is nil when the
// destination has nothing to return). Under message passing the
// back-channel carries returned buffers alone, as tokens with only m set.
type readyTok struct {
	t vtime.Time
	m *dataMsg
}

// poolCap bounds each per-peer free list. Pairs exchange at most a
// handful of message shapes, so a small list reaches steady state
// immediately; anything beyond it is dropped for the GC.
const poolCap = 8

// takeMsg returns a message whose flat buffer holds at least doubles
// elements, recycling from the neighbor slot's free list when possible.
// On message-passing libraries it first drains any buffers the peer
// returned; on rendezvous libraries the free list is refilled by execSR
// from the ready tokens themselves.
func (p *proc) takeMsg(slot, doubles int) *dataMsg {
	if !p.w.lib.Rendezvous {
		p.drainRets(slot)
	}
	pool := p.sendPool[slot]
	for i := len(pool) - 1; i >= 0; i-- {
		if cap(pool[i].flat) >= doubles {
			m := pool[i]
			pool[i] = pool[len(pool)-1]
			p.sendPool[slot] = pool[:len(pool)-1]
			return m
		}
	}
	return &dataMsg{flat: make([]float64, 0, doubles)}
}

// recycleMsg returns a fully unpacked message to the processor that sent
// it (nb is the neighbour it arrived from). Rendezvous libraries stash
// it for the next DR's ready token; message-passing libraries push it
// back directly (deliverRet drops it when the sender's stash is full).
func (p *proc) recycleMsg(nb *neighbor, m *dataMsg) {
	if p.w.lib.Rendezvous {
		if len(p.retPool[nb.slot]) < poolCap {
			p.retPool[nb.slot] = append(p.retPool[nb.slot], m)
		}
		return
	}
	p.deliverRet(p.w.procs[nb.rank], nb.back, m)
}

// popRet takes one stashed message for piggybacking on a ready token to
// the neighbor at slot, or nil when none is waiting.
func (p *proc) popRet(slot int) *dataMsg {
	pool := p.retPool[slot]
	if len(pool) == 0 {
		return nil
	}
	m := pool[len(pool)-1]
	p.retPool[slot] = pool[:len(pool)-1]
	return m
}
