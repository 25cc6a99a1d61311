package rt

import "commopt/internal/vtime"

// This file implements the pooled half of the communication engine: flat
// message buffers recycled between each directed processor pair so the
// steady-state comm path allocates nothing. Recycling piggybacks on
// plumbing that already synchronizes the pair:
//
//   - Rendezvous libraries (SHMEM): the receiver stashes finished
//     messages in retPool and the next DR's ready token carries one back
//     to the sender. The token channel send already exists, so recycling
//     costs no extra synchronization.
//   - Message-passing libraries (PVM, NX): there is no token traffic, so
//     the receiver pushes finished messages back over the same readyFrom
//     channel with a non-blocking send, and the sender drains it
//     non-blockingly before allocating. Either side may drop a buffer
//     when full — recycling is best-effort and purely host-side.
//
// A message returned through either path was fully unpacked before the
// channel send, and the sender reuses it only after the channel receive,
// so the happens-before edges of the transfer itself order every buffer
// reuse (the -race CI job runs the differential suite to prove it).

// readyTok travels dst→src on the readyFrom channels: the rendezvous
// token of the destination-ready protocol plus, optionally, a recycled
// message for the sender's free list. m is nil when the destination has
// nothing to return (and always nil on the legacy engine).
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
		if p.w.mn {
			p.drainRets(slot)
		} else {
			for len(p.sendPool[slot]) < poolCap {
				var tok readyTok
				select {
				case tok = <-p.readyFrom[slot]:
				default:
				}
				if tok.m == nil {
					break // channel empty: only returns travel here in this mode
				}
				p.sendPool[slot] = append(p.sendPool[slot], tok.m)
			}
		}
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
// back directly, dropping it when the destination is full so the return
// can never block.
func (p *proc) recycleMsg(nb *neighbor, m *dataMsg) {
	if p.w.lib.Rendezvous {
		if len(p.retPool[nb.slot]) < poolCap {
			p.retPool[nb.slot] = append(p.retPool[nb.slot], m)
		}
		return
	}
	src := p.w.procs[nb.rank]
	if p.w.mn {
		p.deliverRet(src, nb.back, m)
		return
	}
	select {
	case src.readyFrom[nb.back] <- readyTok{m: m}:
	default:
	}
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
